"""Byte-level goldens: a small sweep's CSV and the count records of three
stored sets, hashed. The digests were recorded before the point sets became
arrays and the zero-pair scans became gated on isotropy; any change to a
count, a sampled subset or the serialization shows here."""

import hashlib
import json

from ffgeom import counting, sweep
from ffgeom.constructions import construct_odd_3mod4
from ffgeom.field import PrimeField
from ffgeom.varieties import PointSet, enum_paraboloid, enum_plane, random_subset

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
}


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def test_sweep_csv_golden():
    rows = sweep.run_sweep(sweep.parse_config(GOLDEN_SWEEP))
    assert _sha256(sweep.rows_to_csv_bytes(rows)) == GOLDEN_SWEEP_CSV_SHA256


def _stored_sets():
    return {
        "paraboloid_103": random_subset(enum_paraboloid(PrimeField(103), 3), 483, seed=11),
        "plane_101": random_subset(enum_plane(PrimeField(101)), 700, seed=12),
        "odd3mod4_11_7": construct_odd_3mod4(PrimeField(11), 7, 5, seed=0),
    }


def test_counts_json_golden(tmp_path):
    for name, E in _stored_sets().items():
        path = tmp_path / f"{name}.txt"
        E.save(path)
        doc = counting.counts_json(PointSet.load(path))
        payload = json.dumps(doc, indent=2, sort_keys=True).encode("utf-8")
        assert _sha256(payload) == GOLDEN_COUNTS_SHA256[name], name
