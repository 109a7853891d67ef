"""The package reproduces the recorded benchmark artifacts byte for byte.

perfbench/golden.json holds the sha256 of every code, orbit and place
artifact the benchmark workloads produce (canonical text plus a newline, as
the CLI writes it) and the exact minimum distances of the codes they
verify.  Each key names its own parameters, so this file rebuilds every
entry from the key alone.  It only reads golden.json; recording a new one
is `perfbench/make_golden.py`'s job.
"""

import hashlib
import json
import pathlib

import pytest

from lrctower import codes, galois, tower

GOLDEN = json.loads(
    (pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text()
)


def sha(text):
    return hashlib.sha256((text + "\n").encode()).hexdigest()


def canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def field(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    w = 0
    while q > 1:
        q //= p
        w += 1
    return galois.field_create(p, w)


def params(key):
    return tuple(int(x) for x in key.split(","))


@pytest.fixture(scope="module")
def built():
    """Every code named in golden.json, keyed as there."""
    out = {}
    for key in GOLDEN["codes"]:
        if not key.startswith("naive:"):
            q, u, v, s = params(key)
            out[key] = codes.build_rational_lrc(field(q), u, v, s)
    for key in GOLDEN["codes"]:
        if key.startswith("naive:"):
            _, source, r = key.split(":")
            out[key] = codes.naive_lrc(out[source], int(r))
    return out


def test_golden_names_every_artifact_kind():
    assert {"codes", "orbits", "places", "distance"} <= set(GOLDEN)
    assert any(key.startswith("naive:") for key in GOLDEN["codes"])
    assert len(GOLDEN["distance"]) == 18


def test_code_artifacts_match_golden(built):
    wrong = [key for key, want in GOLDEN["codes"].items()
             if sha(codes.to_json(built[key])) != want]
    assert not wrong


def test_orbit_artifacts_match_golden():
    wrong = []
    for key, want in GOLDEN["orbits"].items():
        q, m, u, v = params(key)
        group = tower.build_subgroup(field(q), u, v)
        orbits = tower.orbit_partition(group, tower.enumerate_places(field(q), m))
        if sha(canonical(orbits)) != want:
            wrong.append(key)
    assert not wrong


def test_place_artifacts_match_golden():
    wrong = []
    for key, want in GOLDEN["places"].items():
        q, m = params(key)
        doc = [place.to_json() for place in tower.enumerate_places(field(q), m)]
        if sha(canonical(doc)) != want:
            wrong.append(key)
    assert not wrong


def test_distances_match_golden(built):
    found = {key: codes.min_distance(built[key]) for key in GOLDEN["distance"]}
    assert found == GOLDEN["distance"]
