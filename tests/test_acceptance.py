"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v`; the summary lines are written
to the real stdout so they stay visible under capture.
"""

import dataclasses
import json
import random
import sys

import pytest

from ffgeom import counting, constructions, fourier, oracle, sweep
from ffgeom.field import PrimeField
from ffgeom.varieties import enum_paraboloid, random_space_subset, random_subset, restrict_nonzero_base


def announce(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    sys.__stdout__.write(f"ACCEPTANCE {num:>2} {status}  {detail}\n")
    sys.__stdout__.flush()
    assert ok, detail


def test_01_zero_sphere_exactness():
    worst = 0.0
    for n, p in [(2, 3), (2, 7), (2, 11), (2, 19), (6, 3)]:
        err = fourier.zero_sphere_max_error(PrimeField(p), n)
        worst = max(worst, err)
    announce(1, worst < 1e-9, f"zero-sphere closed form vs enumeration, max err {worst:.2e}")


def test_02_reduction_identity():
    checked_total = 0
    bad = 0
    for p in (3, 7, 11):
        P = enum_paraboloid(PrimeField(p), 3)
        checked, mismatches = counting.scan_reduction_identity(P)
        checked_total += checked
        bad += mismatches
    # scalar route agrees with the batched scan on a sample
    rng = random.Random(2024)
    f7 = PrimeField(7)
    P7 = enum_paraboloid(f7, 3)
    apexes7 = [x for x in P7.points if oracle.norm(x[:2], 7) != 0]
    for _ in range(2000):
        x = rng.choice(apexes7)
        y, z = rng.choice(P7.points), rng.choice(P7.points)
        lhs, rhs = oracle.reduction_equiv(f7, x, y, z)
        checked_total += 1
        bad += lhs != rhs
    # sampled triples in dimension 5
    f = PrimeField(7)
    P5 = enum_paraboloid(f, 5)
    apexes = [x for x in P5.points if oracle.norm(x[:4], 7) != 0]
    for _ in range(100_000):
        x = rng.choice(apexes)
        y, z = rng.choice(P5.points), rng.choice(P5.points)
        lhs, rhs = oracle.reduction_equiv(f, x, y, z)
        checked_total += 1
        bad += lhs != rhs
    announce(2, bad == 0, f"reduction identity on {checked_total} triples, {bad} mismatches")


def test_03_inequality_chain():
    rng = random.Random(3)
    violations = 0
    cells = 0
    for p in (7, 11, 19):
        for d in (3, 4):
            P = enum_paraboloid(PrimeField(p), d)
            for _ in range(100):
                E = random_subset(P, rng.randint(2, min(50, len(P))), rng.randrange(2**32))
                rep = counting.inequality_chain(E)
                cells += 1
                if not (rep["cs_product_ok"] and rep["cs_energy_ok"] and rep["reduction_ok"]):
                    violations += 1
    announce(3, violations == 0, f"inequality chain on {cells} random sets, {violations} violations")


def test_04_oracle_equivalence():
    rng = random.Random(4)
    mismatches = []

    def paraboloid_sample(max_size):
        p = rng.choice([7, 11, 13])
        P = enum_paraboloid(PrimeField(p), 3)
        size = rng.randint(2, min(max_size, len(P)))
        return random_subset(P, size, rng.randrange(2**32))

    def plane_sample(max_size):
        p = rng.choice([7, 11, 13])
        return random_space_subset(PrimeField(p), 2, rng.randint(2, max_size), rng.randrange(2**32))

    for _ in range(100):
        E = paraboloid_sample(50)
        if counting.product_set(E) != oracle.oracle_product(E):
            mismatches.append("product_set")
        if counting.profile(E).D != oracle.oracle_D(E):
            mismatches.append("profile.D")
    for _ in range(100):
        E = paraboloid_sample(25)
        if counting.count_M(E) != oracle.oracle_M(E):
            mismatches.append("count_M")
    for _ in range(100):
        X = plane_sample(50)
        pr = counting.profile(X)
        if {k: getattr(pr, k) for k in counting.TRIANGLE_KEYS} != oracle.oracle_triangles(X):
            mismatches.append("profile.triangles")
    for _ in range(100):
        p = rng.choice([5, 7])
        X = random_space_subset(PrimeField(p), 2, rng.randint(1, 15), rng.randrange(2**32))
        table = fourier.fourier_indicator(X)
        bad = any(
            abs(table.values[m] - v) > 1e-9 for m, v in oracle.oracle_fourier(X).items()
        )
        if bad:
            mismatches.append("fourier_indicator")
    announce(4, not mismatches, f"oracle equivalence, 500 instances, mismatches: {mismatches or 'none'}")


def test_05_degenerate_pair_bound():
    rng = random.Random(5)
    violations = 0
    for p in (7, 11, 19, 23):
        for _ in range(50):
            X = random_space_subset(PrimeField(p), 2, rng.randint(1, min(120, p * p)), rng.randrange(2**32))
            z = counting.profile(X).degenerate_pairs
            # exact rational comparison of z <= |X|^2/p + p^0 |X|
            if z * p > len(X) ** 2 + p * len(X):
                violations += 1
    announce(5, violations == 0, f"degenerate pairs within |X|^2/p + |X| on 200 sets, {violations} violations")


def test_06_construction_guarantees():
    f7 = PrimeField(7)
    E3 = constructions.construct_odd_3mod4(f7, 3, 3)
    ok = counting.product_set(E3) == {2, 6}
    E6 = constructions.construct_even_2mod4(f7, 6, 3, seed=0)
    ok = ok and len(E6) == 147 and counting.product_set(E6) <= {2, 6}
    from ffgeom.varieties import on_paraboloid

    ok = ok and on_paraboloid(E3) and on_paraboloid(E6)
    announce(
        6,
        ok,
        f"constructions: odd d=3 products {sorted(counting.product_set(E3))}, "
        f"even d=6 size {len(E6)} products {sorted(counting.product_set(E6))}",
    )


def test_07_slope_i_obstruction():
    f13 = PrimeField(13)
    E = constructions.isotropic_lines_set(f13, 2, 3, seed=1)
    tri = counting.profile(E)
    floor = 2 * 3**3
    ok = tri.t_zero_triples >= floor and floor > len(E) ** 3 / 13
    announce(
        7,
        ok,
        f"slope-i lines: {tri.t_zero_triples} all-zero-side triples >= {floor} > "
        f"|E|^3/p = {len(E) ** 3 / 13:.1f}",
    )


def test_08_extension_ratio_boundedness():
    small_qs = [3, 7, 11, 19, 23]
    large_qs = [31, 43]
    maxima = {}
    for q in small_qs + large_qs:
        stats = fourier.extension_ratio_stats(PrimeField(q), n=2, r_exp=4.0, trials=200, seed=q)
        maxima[q] = stats["max_ratio"]
    small_max = max(maxima[q] for q in small_qs)
    large_max = max(maxima[q] for q in large_qs)
    ok = large_max <= 1.5 * small_max
    detail = ", ".join(f"q={q}: {m:.4f}" for q, m in maxima.items())
    announce(8, ok, f"extension ratio maxima ({detail}); large/small = {large_max / small_max:.3f}")


def test_09_product_ratio_sweep():
    # every prime = 3 mod 4 in [23, 103]
    primes = [23, 31, 43, 47, 59, 67, 71, 79, 83, 103]
    cfg = sweep.parse_config(
        {
            "primes": primes,
            "dims": [3],
            "families": [{"kind": "random_paraboloid_subset", "alpha": "4/3"}],
            "trials": 10,
            "seed": 9,
        }
    )
    rows = sweep.run_sweep(cfg)
    assert all(not r.error for r in rows)
    worst = min(r.prod_ratio for r in rows)
    announce(9, worst >= 0.5, f"product-set ratio sweep over {primes}: min |prod|/p = {worst:.3f}")


def test_10_planar_triangle_bound():
    reports = sweep.planar_triangle_sweep(
        [7, 11, 19, 23, 31, 43], exponent=1.25, trials=1, seed=10
    )
    worst = max(r["ratio"] for r in reports)
    ok = all(r["ok"] for r in reports)
    detail = "; ".join(
        f"p={r['p']}: ratio {r['ratio']:.3f}, excess/bound {r['excess'] / r['min_bound']:+.3f}"
        for r in reports
    )
    announce(10, ok, f"planar triangle bound ({detail}); worst ratio {worst:.3f} <= 100")


def test_11_sweep_determinism(tmp_path):
    doc = {
        "primes": [7, 11],
        "dims": [3],
        "families": [
            {"kind": "random_paraboloid_subset", "alpha": "4/3"},
            {"kind": "construction", "construction": "odd3mod4", "k": 3},
        ],
        "trials": 2,
        "seed": 123,
    }
    cfg = sweep.parse_config(doc)
    first = sweep.emit_rows(sweep.run_sweep(cfg), "csv").encode()
    second = sweep.emit_rows(sweep.run_sweep(cfg), "csv").encode()
    threaded = sweep.emit_rows(sweep.run_sweep(dataclasses.replace(cfg, threads=8)), "csv").encode()
    # and through the CLI, config file in, bytes out
    from ffgeom import cli

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli.main(["--threads", "8", "sweep", "--config", str(cfg_path), "--out", str(out2)]) == 0
    ok = first == second == threaded == out1.read_bytes() == out2.read_bytes()
    announce(11, ok, f"sweep determinism: {len(first)} bytes identical across reruns and 1 vs 8 threads")
