"""Byte-level goldens: a small sweep's CSV and the count records of stored
sets, hashed. The first digests were recorded before the point sets became
arrays and the zero-pair scans became gated on isotropy; any change to a
count, a sampled subset or the serialization shows here. The construction
digests (point text and verification report) were recorded before the three
paraboloid constructions became one recipe. The isotropic frame is now written
down, not drawn by a seeded search: any two maximal isotropic frames differ by
an isometry, so every count and report digest held, and only the point text of
odd3mod4_11_7, even2mod4_7_6 and even0mod4_5_8 was re-recorded (for
even0mod4_13_4 the search had drawn the same isotropic line of F_13^2)."""

import hashlib
import json

from ffgeom import counting, sweep
from ffgeom.constructions import BUILDERS, construction_report
from ffgeom.field import PrimeField
from ffgeom.varieties import PointSet, enum_paraboloid, random_space_subset, random_subset

# Both benchmark sweep families plus a lines family; d = 2 and 3, p = 1 and
# 3 mod 4. Cells a family does not apply to record their error in-row.
GOLDEN_SWEEP = {
    "primes": [13, 23, 43],
    "dims": [2, 3],
    "families": [
        {"kind": "random_paraboloid_subset", "alpha": "4/3"},
        {"kind": "construction", "construction": "odd3mod4", "k_rule": "max_leq_sqrt"},
        {"kind": "lines", "lines": 3, "per_line": 5},
    ],
    "trials": 2,
    "seed": 9,
}
GOLDEN_SWEEP_CSV_SHA256 = "cacac38b47f47bbf6a1368eb4699b0383eb5d91449a9b9a4b5a9991a5beb1b17"

GOLDEN_COUNTS_SHA256 = {
    "paraboloid_103": "f25700d8b3e15dc8336ce5657af284812a2cc8c662f8a0f15b1b9ee806c7fcb3",
    "plane_101": "179fd1d834236d4773172d730b7d45c85dce91000583c5ed09aafd854e438da4",
    "odd3mod4_11_7": "c9dbe2bba49758c876d4375ae920d62bbfdb0d9c780a2dc117e25ab8ae82a190",
    "even2mod4_7_6": "ab21d02491ecc5ed7c827a282bbc9993ac618e5fc9ad4a50a73065866ffc53e4",
    "even0mod4_13_4": "0692a2dd57d335575bdc81e3d9a4f810f4efbd41bc723650febf129543d040a9",
    "even0mod4_5_8": "60a5d93c99a0408ba9b1cb7de65886dc784cc4134cd6c94ccd207b7137c3061b",
}

# (kind, p, d, k, seed) of each stored construction
GOLDEN_CONSTRUCTIONS = {
    "odd3mod4_11_7": ("odd3mod4", 11, 7, 5, 0),
    "even2mod4_7_6": ("even2mod4", 7, 6, 3, 0),
    "even0mod4_13_4": ("even0mod4", 13, 4, 3, 0),
    "even0mod4_5_8": ("even0mod4", 5, 8, 2, 3),
}

# sha256 of the set's to_text() and of its construction_report JSON
GOLDEN_CONSTRUCTION_SHA256 = {
    "odd3mod4_11_7": (
        "66403182bb442ba6be4d475db918ead9cb7e4884b49149bb6e62de5937eba708",
        "ae5b92134d43c1e55231e2754fc9367fb3314ab8fa36c5c8482a5c8102504ae2",
    ),
    "even2mod4_7_6": (
        "8a0e3e5d08cc00837e7f33e323750a199ba35c66332c73f2b4a0e6987825870d",
        "d16e1cd880c2c3f96103aa2b0892e818cd63b937054dab62fae6a6bf17d24b3f",
    ),
    "even0mod4_13_4": (
        "650bdfc1c813099cd9acc71ee72f0ade5e62cc8f4f5473d324279d5b8261a955",
        "d86894af70204acd9221b8002493398fb00740e47d5e23aa66cf06d7415a9588",
    ),
    "even0mod4_5_8": (
        "7097dd5d406306205b4082d01413dd8f0e42149369bc899529a389a3bd9286f6",
        "075a95de1ce9c6f18681a5263510f003b7802e9ab6aad1f8778be8eb490b3d11",
    ),
}


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def test_sweep_csv_golden():
    rows = sweep.run_sweep(sweep.parse_config(GOLDEN_SWEEP))
    assert _sha256(sweep.emit_rows(rows, "csv").encode()) == GOLDEN_SWEEP_CSV_SHA256


def _construction(kind, p, d, k, seed):
    return BUILDERS[kind](PrimeField(p), d, k, seed)


def _stored_sets():
    sets = {
        "paraboloid_103": random_subset(enum_paraboloid(PrimeField(103), 3), 483, seed=11),
        "plane_101": random_space_subset(PrimeField(101), 2, 700, seed=12),
    }
    for name, args in GOLDEN_CONSTRUCTIONS.items():
        sets[name] = _construction(*args)
    return sets


def test_counts_json_golden(tmp_path):
    for name, E in _stored_sets().items():
        path = tmp_path / f"{name}.txt"
        E.save(path)
        doc = counting.counts_json(PointSet.load(path))
        payload = json.dumps(doc, indent=2, sort_keys=True).encode("utf-8")
        assert _sha256(payload) == GOLDEN_COUNTS_SHA256[name], name


def test_construction_golden():
    for name, (kind, p, d, k, seed) in GOLDEN_CONSTRUCTIONS.items():
        E = _construction(kind, p, d, k, seed)
        report = construction_report(kind, PrimeField(p), E, k=k)
        payload = json.dumps(report, indent=2, sort_keys=True).encode("utf-8")
        text_sha, report_sha = GOLDEN_CONSTRUCTION_SHA256[name]
        assert _sha256(E.to_text().encode("utf-8")) == text_sha, name
        assert _sha256(payload) == report_sha, name
