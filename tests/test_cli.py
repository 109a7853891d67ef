import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import types

import pytest

import lrctower
from lrctower import cli


class _Tee(io.StringIO):
    """A captured stream that also writes into a shared one."""

    def __init__(self, shared):
        super().__init__()
        self.shared = shared

    def write(self, text):
        self.shared.write(text)
        return super().write(text)


def invoke(*args):
    """Run the CLI in this process.  The result holds the exit code, stdout,
    stderr, both streams in the order they were written (`output`), and the
    exception the run ended with: a SystemExit for a nonzero exit code, None
    for a zero one, and anything else the CLI let escape (exit code 1)."""
    output = io.StringIO()
    stdout, stderr = _Tee(output), _Tee(output)
    exit_code, exception = 0, None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            cli.main(args)
        except SystemExit as exc:
            exit_code = exc.code or 0
            exception = exc if exit_code else None
        except Exception as exc:
            exit_code, exception = 1, exc
    return types.SimpleNamespace(exit_code=exit_code, stdout=stdout.getvalue(),
                                 stderr=stderr.getvalue(), output=output.getvalue(),
                                 exception=exception)


def test_bounds_eval_main():
    result = invoke("bounds", "eval", "--bound", "main", "--q", "256",
                    "--r", "2", "--delta", "0.5")
    assert result.exit_code == 0
    assert result.output.strip().endswith(repr(103 / 360))


#: sha256 of the README `bounds` commands' standard output, recorded while
#: find_s0 still called gv_derivative_sign at every bisection step
README_BOUNDS = [
    (("bounds", "eval", "--bound", "main", "--q", "256", "--r", "2", "--delta", "0.5"),
     "d76789af2937122a8d702af17dcefdf58f7621e5ba7ac17855e1e24be9810000"),
    (("bounds", "lists", "--q", "256", "--delta", "0.5"),
     "c0f1553184967ee12b42bbf3b4613189f563357f98ab2c82385dd5b9b2c87f1b"),
    (("bounds", "lists", "--reference-sets"),
     "a2eeba1a61296cfe96c0fe22a985430f877182b7e601854a795d84b06448d74e"),
    (("bounds", "s0", "--q", "65536", "--r", "32", "--delta", "0.5"),
     "e85ba3c09394dbaa5b345a2a3df03795e6bfc1f49563df142ddefc37af52386f"),
]
#: sha256 of the fig1.csv the README `bounds sweep` command writes
README_FIG1_CSV = "ce206e1e4e542aa8c3009d9eb29057eee5aa5c4ebaf1151c4882d603032aa8e1"


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("args,digest", README_BOUNDS,
                         ids=["eval", "lists", "reference-sets", "s0"])
def test_readme_bounds_output_is_pinned(args, digest):
    result = invoke(*args)
    assert result.exit_code == 0
    assert sha256(result.stdout.encode()) == digest, result.stdout


def test_readme_bounds_sweep_file_is_pinned(tmp_path):
    out = tmp_path / "fig1.csv"
    result = invoke("bounds", "sweep", "--bounds", "main,gv", "--q", "729", "--r", "2",
                    "--delta-min", "0", "--delta-max", "0.66", "--steps", "67",
                    "--out", str(out))
    assert (result.exit_code, result.stdout) == (0, "")
    assert sha256(out.read_bytes()) == README_FIG1_CSV


#: sha256 of the README `tower` and `code` commands' artifacts, recorded
#: while orbit_partition still re-checked the recursion on every orbit image
README_PLACES_JSON = "94dbb7761c6f4d19bd0d93ec96dc43213cf1a21b3e4c9e8f6755618e0f0535b3"
README_ORBITS = "a9c408ce9f8f55366b27bac710c7183d6fccd4a073c240f31cdc7476d61cbee6"
README_CODE_JSON = "5c0d3a40ed9c8abb0b057a4f57bccdd69d79087d3ca0fb2844683673e054aedb"
README_CODE_BUILD_STDERR = "f84b8628c0efdbff00fad993f4480c9036c449a4cd2357fcba5e6bb7829249ab"
README_CODE_USE = [
    (("verify", "--distance", "--locality"),
     "a8866a5d4cc527661058a189a42aed2e7bc66f3242b93982e757389be5398cd0"),
    (("repair", "--word", "4,7,?,1,0,3"),
     "308ce945f9b40ec78523c6e1aa6ffd82160bb851e54c355bf6f2cb4cc32dabd2"),
]


def test_readme_tower_places_file_is_pinned(tmp_path):
    out = tmp_path / "places.json"
    result = invoke("tower", "places", "--q", "9", "--m", "2", "--out", str(out))
    assert (result.exit_code, result.output) == (0, "")
    assert sha256(out.read_bytes()) == README_PLACES_JSON


def test_readme_tower_orbits_output_is_pinned():
    result = invoke("tower", "orbits", "--q", "9", "--m", "1", "--u", "1", "--v", "1")
    assert (result.exit_code, result.stderr) == (0, "")
    assert sha256(result.stdout.encode()) == README_ORBITS, result.stdout


def test_readme_code_commands_are_pinned(tmp_path):
    code = tmp_path / "c.json"
    result = invoke("code", "build", "--q", "9", "--u", "1", "--v", "1", "--s", "1",
                    "--out", str(code))
    assert (result.exit_code, result.stdout) == (0, "")
    assert sha256(result.stderr.encode()) == README_CODE_BUILD_STDERR, result.stderr
    assert sha256(code.read_bytes()) == README_CODE_JSON
    for (command, *options), digest in README_CODE_USE:
        result = invoke("code", command, str(code), *options)
        assert (result.exit_code, result.stderr) == (0, "")
        assert sha256(result.stdout.encode()) == digest, result.stdout


def test_bounds_eval_domain_error_exit_code():
    result = invoke("bounds", "eval", "--bound", "main", "--q", "5",
                    "--r", "2", "--delta", "0.5")
    assert result.exit_code == 1


@pytest.mark.parametrize("args", [
    pytest.param(["bounds", "eval", "--bound", "nosuch", "--q", "4", "--delta", "0.1"],
                 id="unknown-bound"),
    pytest.param(["bounds", "lists", "--ref"], id="abbreviated-option"),
    pytest.param(["bounds", "lists", "--nosuch"], id="unknown-option"),
    pytest.param(["bounds", "eval", "--q", "256", "--delta", "0.5"], id="missing-option"),
    pytest.param(["bounds", "lists", "--q", "256.0"], id="float-for-int"),
    pytest.param(["bounds", "eval", "--bound", "main", "--q", "256", "--r", "x",
                  "--delta", "0.5"], id="bad-int"),
    pytest.param(["code", "verify", "no/such/file.json"], id="missing-code-file"),
    pytest.param([], id="no-subcommand"),
    pytest.param(["bounds"], id="bare-group"),
    pytest.param(["bounds", "s0", "--q", "256", "--r", "2", "extra"], id="extra-positional"),
    pytest.param(["bounds", "sweep", "--bounds", "main", "--q", "729", "--r", "2",
                  "--delta-min", "0", "--delta-max", "0.5", "--steps", "1"], id="one-step"),
    pytest.param(["bounds", "sweep", "--bounds", ",,,", "--q", "729", "--r", "2",
                  "--delta-min", "0", "--delta-max", "0.5", "--steps", "3"], id="no-bound-id"),
])
def test_usage_error_exit_code(args):
    result = invoke(*args)
    assert result.exit_code == 2
    assert result.stdout == ""


@pytest.mark.parametrize("args,message", [
    pytest.param(["bounds", "lists"], "provide --q or --reference-sets",
                 id="lists-neither-option"),
    pytest.param(["code", "repair", "CODE", "--word", "4,7,?"], "word must have n = 6 symbols",
                 id="repair-short-word"),
    pytest.param(["code", "repair", "CODE", "--word", "4,7,?,?,0,3"],
                 "word must contain exactly one ? (or pass --idx)", id="repair-two-erasures"),
])
def test_usage_error_ends_in_one_error_line(tmp_path, args, message):
    code = tmp_path / "c.json"
    invoke("code", "build", "--q", "9", "--u", "1", "--v", "1", "--s", "1",
           "--out", str(code))
    result = invoke(*(str(code) if arg == "CODE" else arg for arg in args))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1].endswith(f"error: {message}")


def test_option_values_may_start_with_a_dash():
    result = invoke("bounds", "sweep", "--bounds", "main", "--q", "729", "--r", "2",
                    "--delta-min", "-1e-3", "--delta-max", "0.5", "--steps", "3")
    assert result.exit_code == 0
    assert result.stdout.splitlines()[1] == "-0.001,main,nan"
    result = invoke("bounds", "eval", "--bound", "gv", "--q", "-inf", "--r", "2",
                    "--delta", "0.5")
    assert result.exit_code == 1
    assert result.stderr == "DomainError: q must be finite and >= 2, got -inf\n"
    result = invoke("bounds", "eval", "--bound", "main", "--q", "256", "--r", "2",
                    "--delta", "0.5", "--")
    assert result.exit_code == 0
    assert result.stdout == f"main(q=256, r=2, delta=0.5) = {103 / 360!r}\n"


def test_bounds_lists_q256():
    result = invoke("bounds", "lists", "--q", "256", "--delta", "0.5")
    assert result.exit_code == 0
    assert result.output.strip() == "r: 1 2"


def test_bounds_lists_reference_sets():
    result = invoke("bounds", "lists", "--reference-sets")
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert len(lines) == 8
    assert lines[0] == "q=256 r: 1 2"
    assert lines[1] == "q=1024 r: 1 3 7 15 30 31"


def test_bounds_s0():
    for q, r in (("65536", "32"), ("4096", "62"), ("15625", "61"), ("2", "1")):
        result = invoke("bounds", "s0", "--q", q, "--r", r)
        assert result.exit_code == 0
        assert "s0 = " in result.output
        window = result.output.split("window = (")[1].split(")")[0]
        left, right = (float(end) for end in window.split(","))
        assert left == 1.0 / (float(q) - 1.0)
        assert 0.0 < left <= right <= 1.0


def test_sweep_csv_file(tmp_path):
    out = tmp_path / "fig1.csv"
    args = ["bounds", "sweep", "--bounds", "main,gv", "--q", "729", "--r", "2",
            "--delta-min", "0", "--delta-max", "0.66", "--steps", "67",
            "--out", str(out)]
    result = invoke(*args)
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "delta,bound_id,value"
    assert len(lines) == 1 + 134  # header + 67 deltas x 2 bounds
    first = out.read_bytes()
    invoke(*args)
    assert out.read_bytes() == first  # byte-identical re-run


def test_tower_places_json(tmp_path):
    out = tmp_path / "places.json"
    result = invoke("tower", "places", "--q", "9", "--m", "2", "--out", str(out))
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    assert len(doc) == 18
    assert all(len(place) == 2 for place in doc)


def test_tower_orbits_json():
    result = invoke("tower", "orbits", "--q", "9", "--m", "1", "--u", "1", "--v", "1")
    assert result.exit_code == 0
    orbits = json.loads(result.output)
    assert sorted(len(o) for o in orbits) == [3, 3]


def test_code_pipeline(tmp_path):
    code_file = tmp_path / "c.json"
    result = invoke("code", "build", "--q", "9", "--u", "1", "--v", "1",
                    "--s", "1", "--out", str(code_file))
    assert result.exit_code == 0
    doc = json.loads(code_file.read_text())
    assert doc["n"] == 6 and doc["k"] == 4 and doc["r"] == 2

    result = invoke("code", "verify", str(code_file), "--distance", "--locality")
    assert result.exit_code == 0
    assert "n=6 k=4 r=2" in result.output
    assert "distance: d=2 pass" in result.output
    assert "algebraic=pass" in result.output and "exhaustive=pass" in result.output

    # build a word by hand: message (1, 0, 0, 0) -> first generator row
    row = doc["generator"][0]

    def idx(coeffs):
        return coeffs[0] + 3 * coeffs[1]

    symbols = [str(idx(c)) for c in row]
    erased = symbols[2]
    symbols[2] = "?"
    result = invoke("code", "repair", str(code_file), "--word", ",".join(symbols))
    assert result.exit_code == 0
    assert result.output.strip() == f"repaired[2] = {erased}"


_NUMPY_PROBE = """
import contextlib, io, json, sys
from lrctower import cli

def loaded():
    mods = sorted(m.split(".")[1] for m in sys.modules if m.startswith("lrctower."))
    return ("numpy" in sys.modules, "click" in sys.modules, "dataclasses" in sys.modules,
            ",".join(mods))

print("import", *loaded())
for args in json.loads(sys.stdin.read()):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(args)
    print(" ".join(args[:2]), *loaded())
"""


def _probe(tmp_path, steps):
    src = os.path.dirname(os.path.dirname(lrctower.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", _NUMPY_PROBE], cwd=tmp_path, env=env,
                         input=json.dumps(steps), capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_numpy_is_loaded_only_by_exhaustive_scans(tmp_path):
    """No CLI command loads numpy (no module of the package imports it),
    click or dataclasses, and each loads only the submodules it runs: the bounds
    commands none of codes, galois and tower (those that solve GV `_s0band`,
    which then stays loaded), the tower commands no codes, and `code repair`
    and `code verify` no tower."""
    bare, field = "bounds,cli,errors", "bounds,cli,errors,galois,tower"
    code, full = "bounds,cli,codes,errors,galois", "bounds,cli,codes,errors,galois,tower"
    gv, gv_field, gv_full = ("_s0band," + mods for mods in (bare, field, full))
    assert _probe(tmp_path, [
        ["bounds", "eval", "--bound", "main", "--q", "256", "--r", "2", "--delta", "0.5"],
        ["bounds", "sweep", "--bounds", "main,gv,lp", "--q", "256", "--r", "2",
         "--delta-min", "0.1", "--delta-max", "0.5", "--steps", "3"],
        ["bounds", "s0", "--q", "256", "--r", "2"],
        ["bounds", "lists", "--q", "256", "--delta", "0.5"],
        ["bounds", "lists", "--reference-sets"],
        ["tower", "orbits", "--q", "9", "--m", "1", "--u", "1", "--v", "1"],
        ["code", "build", "--q", "9", "--u", "1", "--v", "1", "--s", "1", "--out", "c.json"],
    ]) == [
        f"import False False False {bare}", f"bounds eval False False False {bare}",
        f"bounds sweep False False False {gv}", f"bounds s0 False False False {gv}",
        f"bounds lists False False False {gv}", f"bounds lists False False False {gv}",
        f"tower orbits False False False {gv_field}", f"code build False False False {gv_full}",
    ]
    assert _probe(tmp_path, [
        ["code", "repair", "c.json", "--word", "4,7,?,1,0,3"],
        ["code", "verify", "c.json", "--distance", "--locality"],
    ]) == [f"import False False False {bare}", f"code repair False False False {code}",
           f"code verify False False False {code}"]


def test_no_module_of_the_package_imports_numpy():
    import ast
    import pathlib

    modules = sorted(pathlib.Path(lrctower.__file__).parent.glob("*.py"))
    assert {m.stem for m in modules} >= {"__init__", "codes", "galois", "tower", "bounds"}
    for module in modules:
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [n for n in names if n.split(".")[0] == "numpy"], module.name


_NUMPY_FREE_PIPELINE = """
import sys
from lrctower import codes, galois

# (p, w), (u, v, s) and the locality of a naive augmentation, or None
for (p, w), (u, v, s), r in [((3, 2), (1, 1, 1), 2), ((2, 4), (1, 1, 1), 11),
                             ((2, 8), (1, 1, 0), None)]:
    f = galois.field_create(p, w)
    built = codes.build_rational_lrc(f, u, v, s)
    code = codes.from_json(codes.to_json(built))
    assert codes.to_json(code) == codes.to_json(built)
    assert codes.min_distance(code) >= code.meta["d_lower"]
    assert codes.verify_locality(code).passed
    if r is not None:
        assert codes.verify_locality(codes.naive_lrc(code, r)).passed
    word = list(codes.encode(code, [1] * code.k))
    erased, word[0] = word[0], None
    assert codes.local_repair(code, word, 0) == erased
    add, mul, inv = f.tables()
    assert mul[2][inv[2]] == 1 and add[1][0] == 1
print("numpy" in sys.modules)
"""


def test_build_verify_repair_and_tables_never_load_numpy():
    src = os.path.dirname(os.path.dirname(lrctower.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _NUMPY_FREE_PIPELINE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]


def test_lazy_submodules_load_on_first_use():
    src = os.path.dirname(os.path.dirname(lrctower.__file__))
    probe = """
import sys
import lrctower
print(sorted(m for m in ("codes", "galois", "tower") if "lrctower." + m in sys.modules))
from lrctower import tower
print(tower is sys.modules["lrctower.tower"], lrctower.codes.__name__)
print(all(m in dir(lrctower) for m in ("bounds", "codes", "galois", "tower")))
try:
    lrctower.nosuch
except AttributeError as exc:
    print(exc)
"""
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "[]", "True lrctower.codes", "True",
        "module 'lrctower' has no attribute 'nosuch'",
    ]


def test_code_build_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    invoke("code", "build", "--q", "16", "--u", "3", "--v", "0", "--s", "1",
           "--out", str(a))
    invoke("code", "build", "--q", "16", "--u", "3", "--v", "0", "--s", "1",
           "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_code_build_domain_error():
    result = invoke("code", "build", "--q", "9", "--u", "1", "--v", "1", "--s", "9")
    assert result.exit_code == 1


def test_no_temp_files_left(tmp_path):
    out = tmp_path / "x.csv"
    invoke("bounds", "sweep", "--bounds", "main", "--q", "729", "--r", "2",
           "--delta-min", "0.1", "--delta-max", "0.5", "--steps", "5",
           "--out", str(out))
    assert set(os.listdir(tmp_path)) == {"x.csv"}


@pytest.mark.parametrize("args,error", [
    pytest.param(["code", "verify", "NOFIELD"], "SpecMismatch", id="missing-field"),
    pytest.param(["code", "repair", "CODE", "--word", "4,7,?,1,0,x"], "SpecMismatch",
                 id="bad-word-token"),
    pytest.param(["code", "repair", "CODE", "--word", "?,1,2,3,4,99"], "SpecMismatch",
                 id="word-symbol-q-outside-the-group"),
    pytest.param(["code", "repair", "CODE", "--word", "?,1,2,3,4,-1"], "SpecMismatch",
                 id="word-symbol-negative-outside-the-group"),
    pytest.param(["code", "repair", "CODE", "--word", "4,7,?,1,0,3", "--idx", "-1"],
                 "NoGroups", id="idx-negative"),
    pytest.param(["code", "repair", "CODE", "--word", "4,7,?,1,0,3", "--idx", "6"],
                 "NoGroups", id="idx-n"),
    pytest.param(["code", "repair", "CODE", "--word", "4,7,?,1,0,3", "--idx", "11"],
                 "NoGroups", id="idx-beyond-n"),
    pytest.param(["bounds", "eval", "--bound", "gv", "--q", "nan", "--r", "2",
                  "--delta", "0.5"], "DomainError", id="nan-q"),
    pytest.param(["bounds", "eval", "--bound", "main", "--q", "1e400", "--r", "2",
                  "--delta", "0.5"], "DomainError", id="inf-q"),
    pytest.param(["bounds", "eval", "--bound", "gv", "--q", "9", "--r", "2",
                  "--delta", "nan"], "DomainError", id="nan-delta"),
    pytest.param(["bounds", "sweep", "--bounds", "main,gv", "--q", "nan", "--r", "2",
                  "--delta-min", "0", "--delta-max", "0.5", "--steps", "3"],
                 "DomainError", id="nan-q-sweep"),
    *[pytest.param(["bounds", "eval", "--bound", bound, "--q", "256", "--r", "9" * 400,
                    "--delta", "0.5"], "DomainError", id=f"huge-r-{bound}")
      for bound in ("gv", "main", "lp")],
    pytest.param(["bounds", "s0", "--q", "256", "--r", "9" * 400, "--delta", "0.5"],
                 "DomainError", id="huge-r-s0"),
    # finite r whose (r + 1) ln q overflows: int(1.7e308) and 10^307 (at q = 2^64)
    *[pytest.param(["bounds", *cmd, "--q", q, "--r", r, "--delta", "0.6"],
                   "DomainError", id=f"overflowing-r-{cmd[0]}-q{q}")
      for cmd in (["eval", "--bound", "gv"], ["s0"])
      for q, r in (("3", str(int(1.7e308))), (str(2**64), str(10**307)))],
    *[pytest.param(["bounds", "sweep", "--bounds", "main,gv", "--q", "729", "--r", r,
                    "--delta-min", "0", "--delta-max", "0.5", "--steps", "3"],
                   "DomainError", id=f"{name}-r-sweep")
      for name, r in (("huge", "9" * 400), ("zero", "0"))],
    pytest.param(["bounds", "lists", "--q", str((10**9 + 7) ** 2)], "TooLarge",
                 id="huge-q"),
    pytest.param(["bounds", "sweep", "--bounds", "main,gv", "--q", "729", "--r", "2",
                  "--delta-min", "0", "--delta-max", "0.5", "--steps", "100000000"],
                 "TooLarge", id="huge-steps"),
    pytest.param(["code", "verify", "DIR"], "SpecMismatch", id="verify-directory"),
    pytest.param(["code", "repair", "DIR", "--word", "?"], "SpecMismatch",
                 id="repair-directory"),
    pytest.param(["code", "verify", "LATIN1"], "SpecMismatch", id="verify-not-utf8"),
    pytest.param(["code", "repair", "LATIN1", "--word", "?"], "SpecMismatch",
                 id="repair-not-utf8"),
])
def test_bad_input_is_a_one_line_error_with_exit_1(tmp_path, args, error):
    code = tmp_path / "c.json"
    invoke("code", "build", "--q", "9", "--u", "1", "--v", "1", "--s", "1",
           "--out", str(code))
    doc = json.loads(code.read_text())
    del doc["field"]
    nofield = tmp_path / "nofield.json"
    nofield.write_text(json.dumps(doc))
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(code.read_bytes().replace(b"rational-aut", b"rational-\xe4ut"))
    files = {"CODE": str(code), "NOFIELD": str(nofield), "DIR": str(tmp_path),
             "LATIN1": str(latin1)}
    result = invoke(*(files.get(arg, arg) for arg in args))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not a traceback
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{error}: ")


def test_verify_distance_of_a_k0_code_is_a_one_line_error(tmp_path):
    code = tmp_path / "c.json"
    invoke("code", "build", "--q", "9", "--u", "1", "--v", "1", "--s", "1",
           "--out", str(code))
    doc = json.loads(code.read_text())
    doc.update(k=0, generator=[])
    code.write_text(json.dumps(doc))
    result = invoke("code", "verify", str(code), "--distance")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert "distance:" not in result.stdout  # no "d=n+1 pass"
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("DomainError: ")


def test_verify_locality_of_a_k0_code_passes(tmp_path):
    code = tmp_path / "c.json"
    invoke("code", "build", "--q", "9", "--u", "1", "--v", "1", "--s", "1",
           "--out", str(code))
    doc = json.loads(code.read_text())
    doc.update(k=0, generator=[])
    code.write_text(json.dumps(doc))
    result = invoke("code", "verify", str(code), "--locality")
    assert result.exit_code == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "locality: r=2 algebraic=pass exhaustive=pass"


def test_verify_of_an_n0_code_is_a_one_line_error(tmp_path):
    code = tmp_path / "n0.json"
    code.write_text(json.dumps({
        "field": {"p": 3, "w": 1, "modulus": [0, 1]}, "n": 0, "k": 0, "r": 1,
        "construction": "naive", "params": {"source": "generic"}, "generator": [],
        "repair_groups": [], "y_values": None, "d_lower": 1,
    }))
    for flags in (["--locality"], ["--distance"], []):
        result = invoke("code", "verify", str(code), *flags)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert result.stdout == ""
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("DomainError: ")


def test_verify_scan_above_the_scan_field_is_a_one_line_error(tmp_path):
    f = lrctower.galois.field_create(2, 13)  # q = 8192: a lane would hold 8192 bytes
    code = tmp_path / "c.json"
    code.write_text(json.dumps({
        "field": f.to_json(), "n": 3, "k": 1, "r": 2, "construction": "naive",
        "params": {"source": "generic"}, "repair_groups": [[0, 1, 2]],
        "generator": [[[1] + [0] * 12, [0, 1] + [0] * 11, [1, 1] + [0] * 11]],
        "y_values": None, "d_lower": 1,
    }))
    for flag in ("--distance", "--locality"):
        result = invoke("code", "verify", str(code), flag)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        lines = result.stderr.strip().splitlines()
        assert lines == ["TooLarge: codeword scans are limited to q <= 4096, got q=8192"]


@pytest.mark.parametrize("args,line", [
    pytest.param(["bounds", "sweep", "--bounds", "main", "--q", "10", "--r", "2",
                  "--delta-min", "0.1", "--delta-max", "0.5", "--steps", "3"],
                 "DomainError: q = 10.0 is not a perfect square", id="sweep-main-q-10"),
    pytest.param(["bounds", "sweep", "--bounds", "gv,naive_tvz", "--q", "16.5", "--r", "2",
                  "--delta-min", "0.1", "--delta-max", "0.5", "--steps", "3"],
                 "DomainError: q = 16.5 is not a perfect square", id="sweep-naive-tvz-q-16.5"),
    pytest.param(["code", "build", "--q", "8", "--u", "1", "--v", "0", "--s", "0"],
                 "NoSquareRoot: GF(2^3) has odd degree", id="code-build-q-8"),
])
def test_a_non_square_q_is_one_error_line_for_the_whole_command(args, line):
    result = invoke(*args)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == line + "\n"


def test_huge_q_names_the_integer_the_float_holds():
    result = invoke("bounds", "eval", "--bound", "main", "--q", "1e30",
                    "--r", "2", "--delta", "0.5")
    assert result.exit_code == 1
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("DomainError: ")
    assert "1000000000000000019884624838656" in lines[0]
    result = invoke("bounds", "eval", "--bound", "main", "--q", str(3 * 2**58),
                    "--r", "2", "--delta", "0.5")
    assert f"holds the integer {3 * 2**58})" in result.stderr  # above 2^53 too
    result = invoke("bounds", "eval", "--bound", "main", "--q", "24", "--r", "2",
                    "--delta", "0.5")
    assert result.stderr.strip() == "DomainError: q = 24.0 is not a perfect square"
    # squares the float holds exactly still evaluate, up to 2^64
    for q in (2**54, (2**26 + 1) ** 2, 2**64):
        result = invoke("bounds", "eval", "--bound", "main", "--q", str(q), "--r", "2",
                        "--delta", "0.5")
        assert result.exit_code == 0, result.output


@pytest.mark.parametrize("key,value,line", [
    ("modulus", [True, False, True], "SpecMismatch: modulus coefficient True is not an integer"),
    ("p", True, "SpecMismatch: p True is not an integer"),
    ("w", True, "SpecMismatch: w True is not an integer"),
])
def test_a_boolean_in_a_code_files_field_is_one_error_line(tmp_path, key, value, line):
    code = tmp_path / "c.json"
    invoke("code", "build", "--q", "9", "--u", "1", "--v", "1", "--s", "1",
           "--out", str(code))
    doc = json.loads(code.read_text())
    doc["field"][key] = value
    code.write_text(json.dumps(doc))
    result = invoke("code", "verify", str(code))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert result.stderr == line + "\n"


def test_emit_removes_its_temp_file_when_the_write_fails(tmp_path):
    out = tmp_path / "out.json"
    with pytest.raises(UnicodeEncodeError):  # a lone surrogate has no encoding
        cli._emit("\udc80", str(out))
    assert list(tmp_path.iterdir()) == []  # neither the artifact nor a .tmp-artifact-*


def test_package_dir_lists_the_lazy_modules():
    names = dir(lrctower)
    assert names == sorted(names)
    assert {"LrcError", "bounds", "codes", "errors", "galois", "tower"} <= set(names)
