"""Record the reference outputs the benchmark checks against.

    python3 perfbench/make_golden.py      # from the repository root

Writes perfbench/golden.json from the package in ./src: sha256 of every
code, place and orbit artifact the workloads produce (as the CLI writes
them), the exact minimum distance of every code the verify requests scan,
and the winner lists of the eight reference q at delta = 0.5 (the sets
acceptance criterion 01 computes).  The file in the repository was
recorded at the commit that added the benchmark; later changes must
reproduce it byte for byte.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from lrctower import bounds, codes, galois, tower  # noqa: E402

import wl_bounds  # noqa: E402
import wl_cli  # noqa: E402
import wl_codes  # noqa: E402
from wl_codes import FIELDS, artifact_sha, canonical, key  # noqa: E402


def field(q):
    return galois.field_create(*FIELDS[q])


def main():
    built = {}
    code_params = set(wl_cli.FIXTURES.values()) | set(wl_cli.BUILDS) | {wl_cli.BUILD256}
    for params in wl_codes.BUILDS.values():
        code_params |= set(params)
    for name in wl_codes.REPAIR_CODES + wl_codes.VERIFY_CODES:
        if not name.startswith("naive:"):
            code_params.add(tuple(map(int, name.split(","))))
    golden = {"codes": {}, "orbits": {}, "places": {}, "distance": {}, "lists": {}}
    for q, u, v, s in sorted(code_params):
        built[key((q, u, v, s))] = code = codes.build_rational_lrc(field(q), u, v, s)
        golden["codes"][key((q, u, v, s))] = artifact_sha(codes.to_json(code))
    for source, r in wl_codes.NAIVE:
        naive = codes.naive_lrc(built[key(source)], r)
        built[wl_codes.naive_key(source, r)] = naive
        golden["codes"][wl_codes.naive_key(source, r)] = artifact_sha(codes.to_json(naive))
    for q, m, u, v in sorted(set(wl_codes.ORBITS) | set(wl_cli.ORBITS) | {wl_cli.ORBITS64}):
        group = tower.build_subgroup(field(q), u, v)
        orbits = tower.orbit_partition(group, tower.enumerate_places(field(q), m))
        golden["orbits"][key((q, m, u, v))] = artifact_sha(canonical(orbits))
    for q, m in wl_cli.PLACES:
        doc = [pl.to_json() for pl in tower.enumerate_places(field(q), m)]
        golden["places"][key((q, m))] = artifact_sha(canonical(doc))
    for name in wl_codes.VERIFY_CODES:
        golden["distance"][name] = codes.min_distance(built[name])
    for q in wl_bounds.REFERENCE_QS:
        golden["lists"][str(q)] = sorted(
            bounds.beats_gv_localities(q, 0.5, bounds.admissible_localities(q)))
    with open(os.path.join(HERE, "golden.json"), "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
