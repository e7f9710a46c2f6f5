import ast
import dataclasses
import json
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffgeom import counting, oracle
from ffgeom.constructions import (
    construct_even_0mod4,
    construct_even_2mod4,
    construct_odd_3mod4,
    isotropic_lines_set,
)
from ffgeom.field import PrimeField
from ffgeom.varieties import (
    PointSet,
    ResourceLimitError,
    enum_paraboloid,
    on_paraboloid,
    random_space_subset,
    random_subset,
    restrict_nonzero_base,
)


def rand_paraboloid_subset(p, d, size, seed):
    f = PrimeField(p)
    return random_subset(enum_paraboloid(f, d), size, seed)


def rand_plane_subset(p, size, seed):
    return random_space_subset(PrimeField(p), 2, size, seed)


def triangles(pr):
    """The triangle counts of a Profile as `ffgeom triangles` prints them."""
    return {k: getattr(pr, k) for k in counting.TRIANGLE_KEYS}


def test_product_set_example():
    f = PrimeField(7)
    E = PointSet.build(f, 3, [(0, 1, 1), (0, 2, 4)])
    assert counting.product_set(E) == {2, 6}


def test_product_set_single_point_and_symmetry():
    f = PrimeField(11)
    E = PointSet.build(f, 3, [(2, 3, 5)])
    assert counting.product_set(E) == {oracle.norm((2, 3, 5), 11)}
    A = rand_paraboloid_subset(11, 3, 9, 1)
    B = rand_paraboloid_subset(11, 3, 7, 2)
    assert counting.product_set(A, B) == counting.product_set(B, A)


def test_histogram_total():
    E = rand_paraboloid_subset(11, 3, 15, seed=4)
    F = rand_paraboloid_subset(11, 3, 9, seed=5)
    hist = counting.dot_histogram(E, F)
    assert len(hist) == 11 and sum(hist) == len(E) * len(F)


def test_profile_is_one_flat_record():
    names = [f.name for f in dataclasses.fields(counting.Profile)]
    assert names == [
        "prod_size",
        "M",
        "D",
        "D_star",
        "t_nde",
        "t_de",
        "t_star",
        "degenerate_pairs",
        "t_nde_raw",
        "t_zero_triples",
        "isosceles_total",
        "zero_pairs",
        "base_zero_pairs",
        "isotropic_classes",
    ]
    for E in (
        rand_paraboloid_subset(13, 3, 40, seed=1),
        rand_plane_subset(13, 40, seed=2),
        isotropic_lines_set(PrimeField(13), 2, 4),
    ):
        pr = counting.profile(E)
        assert all(type(getattr(pr, name)) is int for name in names)
        assert pr.isosceles_total == pr.t_nde + pr.t_de
    with pytest.raises(dataclasses.FrozenInstanceError):
        pr.M = 0


def test_dimension_mismatch_rejected():
    f = PrimeField(7)
    A = PointSet.build(f, 2, [(0, 1)])
    B = PointSet.build(f, 3, [(0, 1, 1)])
    with pytest.raises(ValueError):
        counting.product_set(A, B)


def test_energy_trivial_cases():
    E = PointSet.build(PrimeField(7), 3, [(1, 2, 5)])
    assert counting.count_M(E) == 1
    assert counting.profile(E).D == 1


def test_energy_lower_bounds_and_oracles():
    rng = random.Random(7)
    for _ in range(12):
        p = rng.choice([7, 11, 13])
        E = rand_paraboloid_subset(p, 3, rng.randint(2, 24), rng.randrange(2**32))
        D = counting.profile(E).D
        M = counting.count_M(E) if len(E) <= 18 else None
        assert D >= len(E) ** 2
        assert D == oracle.oracle_D(E)
        if M is not None:
            assert M >= len(E) ** 2
            assert M == oracle.oracle_M(E)
            assert M <= len(E) * D


def test_d_star_oracle_and_diagonal():
    rng = random.Random(11)
    for _ in range(8):
        p = rng.choice([7, 11])
        E = rand_paraboloid_subset(p, 3, rng.randint(2, 20), rng.randrange(2**32))
        assert counting.profile(E).D_star == oracle.oracle_D_star(E)
    # p = 3 mod 4, d = 3: zero base distance forces y = z, so the correction
    # is exactly the diagonal
    E = rand_paraboloid_subset(19, 3, 25, seed=0)
    pr = counting.profile(E)
    assert pr.D_star == pr.D - len(E) ** 2


def test_d_star_requires_paraboloid():
    X = rand_plane_subset(13, 10, seed=2)
    assert counting.profile(X).D_star == oracle.oracle_D_star(X, allow_ambient_base=True)
    with pytest.raises(ValueError, match="requires a paraboloid set"):
        oracle.oracle_D_star(X)


def test_apex_example():
    f = PrimeField(7)
    assert oracle.apex(f, (1, 2, 5)) == (2, 4)
    with pytest.raises(ValueError):
        oracle.apex(f, (0, 0, 0))
    with pytest.raises(ValueError, match="base norm is zero"):
        counting.apex_set(PointSet.build(f, 3, [(1, 2, 5), (0, 0, 0)]))


def test_apex_unit_base():
    f = PrimeField(11)
    x = (1, 0, 1)
    assert oracle.apex(f, x) == (-pow(2, -1, 11) % 11, 0)  # -1/2 = 5


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_apex_injective_on_restricted_paraboloid(p):
    f = PrimeField(p)
    Er = restrict_nonzero_base(enum_paraboloid(f, 3))
    assert len(counting.apex_set(Er)) == len(Er)


def test_reduction_equiv_trivial_and_counterexample():
    f = PrimeField(7)
    P = enum_paraboloid(f, 3)
    x = (1, 2, 5)
    y, z = (0, 1, 1), (0, 1, 1)
    assert oracle.reduction_equiv(f, x, y, z) == (True, True)
    # any triple with x.y != x.z must report (False, False)
    found = False
    for y in P.points:
        for z in P.points:
            if oracle.dot(x, y, 7) != oracle.dot(x, z, 7):
                assert oracle.reduction_equiv(f, x, y, z) == (False, False)
                found = True
                break
        if found:
            break
    assert found


@pytest.mark.parametrize("p", [3, 7])
def test_reduction_equiv_exhaustive_small(p):
    f = PrimeField(p)
    P = enum_paraboloid(f, 3)
    apexes = [x for x in P.points if oracle.norm(x[:2], p) != 0]
    for x in apexes:
        for y in P.points:
            for z in P.points:
                lhs, rhs = oracle.reduction_equiv(f, x, y, z)
                assert lhs == rhs


def test_scan_matches_scalar_reduction():
    f = PrimeField(11)
    P = enum_paraboloid(f, 3)
    checked, mismatches = counting.scan_reduction_identity(P)
    apex_count = sum(1 for x in P.points if oracle.norm(x[:2], 11) != 0)
    assert checked == apex_count * len(P) ** 2
    assert mismatches == 0
    Er = restrict_nonzero_base(P)
    assert counting.apex_set(Er).points == tuple(sorted(oracle.apex(f, x) for x in Er.points))
    # off a paraboloid the two sides disagree, and the scan counts the triples
    # whose scalar definitions differ
    f5 = PrimeField(5)
    X = random_space_subset(f5, 3, 30, seed=1)
    apexes = [x for x in X.points if oracle.norm(x[:2], 5) != 0]
    triples = [(x, y, z) for x in apexes for y in X.points for z in X.points]
    expect = sum(lhs != rhs for lhs, rhs in (oracle.reduction_equiv(f5, *t) for t in triples))
    assert expect > 0
    assert counting.scan_reduction_identity(X) == (len(triples), expect)


@pytest.mark.parametrize("pt", [(10**18 + 2, 1), (3 * 10**9, 1)])
def test_apex_products_that_would_wrap_are_refused(pt):
    """Over p = 10^18 + 3 int64 products of coordinates below p wrap:
    (p - 1)^2, and base * (p - inverse) for the base 3 10^9, whose norm
    9 10^18 alone fits. Both apex kernels refuse the p, where they answered
    wrongly; at p = 2^31 - 1, where 2 (p - 1)^2 < 2^63, they are exact."""
    E = PointSet.build(PrimeField(10**18 + 3), 2, [pt])
    for fn in (counting.apex_set, counting.scan_reduction_identity):
        with pytest.raises(ValueError, match="overflow int64"):
            fn(E)
    f = PrimeField(2**31 - 1)
    P = PointSet.build(f, 2, [(x, x * x % f.p) for x in (f.p - 1, f.p - 2, 3 * 10**4)])
    assert counting.apex_set(P).points == tuple(sorted(oracle.apex(f, x) for x in P.points))
    assert counting.scan_reduction_identity(P) == (27, 0)


def test_two_point_triangle_taxonomy():
    f = PrimeField(7)
    X = PointSet.build(f, 2, [(0, 0), (1, 0)])
    tc = counting.profile(X)
    # ordered pairs (x, x) sit at distance zero, so both count
    assert tc.degenerate_pairs == 2
    # the raw equal-nonzero-sides count keeps the y = z triples ...
    assert tc.t_nde_raw == 2
    # ... which the partitioned counts classify as degenerate (zero base)
    assert tc.t_nde == 0 and tc.t_de == 4 and tc.t_star == 0
    assert tc.isosceles_total == 4


def test_isotropic_line_triangles():
    # direction (1, 5) has norm 26 = 0 mod 13
    f = PrimeField(13)
    X = PointSet.build(f, 2, [(t, 5 * t % 13) for t in range(3)])
    tc = counting.profile(X)
    assert tc.degenerate_pairs == 9
    assert tc.t_zero_triples == 27
    assert tc.isosceles_total == 27
    assert tc.t_nde == tc.t_star == tc.t_nde_raw == 0


def test_triangles_match_oracle():
    rng = random.Random(23)
    for _ in range(15):
        p = rng.choice([7, 11, 13])
        X = rand_plane_subset(p, rng.randint(2, 40), rng.randrange(2**32))
        fast = triangles(counting.profile(X))
        assert fast == oracle.oracle_triangles(X)


def test_triangles_nonplanar_match_oracle():
    rng = random.Random(29)
    for _ in range(6):
        X = rand_paraboloid_subset(7, 4, rng.randint(2, 30), rng.randrange(2**32))
        assert triangles(counting.profile(X)) == oracle.oracle_triangles(X)


def test_inequality_chain_singleton():
    E = PointSet.build(PrimeField(7), 3, [(1, 2, 5)])
    rep = counting.inequality_chain(E)
    assert rep["ok"]
    assert rep["prod_size"] * rep["m_value"] >= 1 and rep["m_value"] <= rep["d_value"]


def test_inequality_chain_random_and_full():
    rng = random.Random(31)
    for _ in range(10):
        E = rand_paraboloid_subset(11, 3, rng.randint(2, 30), rng.randrange(2**32))
        assert counting.inequality_chain(E)["ok"]
    full = enum_paraboloid(PrimeField(7), 3)
    rep = counting.inequality_chain(full)
    assert rep["ok"] and rep["reduction_ok"] is not None


CHAIN_KEYS = ["size", "prod_size", "m_value", "d_value", "cs_product_ok", "cs_energy_ok"]
REDUCTION_KEYS = ["restricted_size", "restricted_d", "reduction_iso_total", "reduction_ok"]


def test_inequality_chain_keys():
    # the reduction keys appear for paraboloid sets only, and "ok" ANDs every check
    on = rand_paraboloid_subset(7, 3, 12, seed=8)
    off = random_space_subset(PrimeField(7), 3, 12, seed=8)
    assert not on_paraboloid(off)
    for E, keys in [(on, CHAIN_KEYS + REDUCTION_KEYS), (off, CHAIN_KEYS)]:
        rep = counting.inequality_chain(E)
        assert list(rep) == keys + ["ok"]
        assert rep["ok"] is all(rep[k] for k in keys if k.endswith("_ok"))
        json.dumps(rep)


def test_degenerate_pair_bound_planar():
    # n = 2, q = 3 mod 4: pairs at distance zero obey |X|^2/q + |X|
    rng = random.Random(37)
    for p in [7, 11, 19]:
        for _ in range(5):
            X = rand_plane_subset(p, rng.randint(2, 40), rng.randrange(2**32))
            z = counting.profile(X).degenerate_pairs
            assert z * p <= len(X) ** 2 + p * len(X)


def test_triangle_bound_generous_constant():
    rng = random.Random(41)
    for p in [7, 11, 19]:
        for _ in range(5):
            X = rand_plane_subset(p, rng.randint(4, 45), rng.randrange(2**32))
            assert counting.triangle_bound_report(X)["ok"]


def test_triangle_bound_report_keys():
    rep = counting.triangle_bound_report(rand_plane_subset(7, 10, seed=2))
    assert list(rep) == ["size", "isosceles_total", "bound", "ratio", "ok"]
    assert rep["ratio"] == rep["isosceles_total"] / rep["bound"]
    assert rep["ok"] is (rep["ratio"] <= counting.TRIANGLE_BOUND_CONSTANT)


def test_counts_json_fixed_keys():
    E = rand_paraboloid_subset(7, 3, 12, seed=8)
    doc = counting.counts_json(E)
    assert list(doc) == [
        "p",
        "d",
        "set_size",
        "prod_size",
        "D",
        "D_star",
        "M",
        "t_nde",
        "t_de",
        "t_star",
        "degenerate_pairs",
    ]
    json.dumps(doc)
    assert doc["set_size"] == 12 and doc["p"] == 7


# -- profile at small row blocks and beyond the oracle caps ------------------


def test_small_row_blocks_match_oracles(monkeypatch):
    # 7-row blocks: sets of 30-60 points cross many block edges in the Gram
    # pass and, with more than 7 classes, in the class histograms; 7-edge
    # chunks split the triangle count of the zero-distance graph.
    monkeypatch.setattr(counting, "_block_rows", lambda row_bytes: 7)
    for rep in oracle.run_battery(seed=4, instances=12):
        assert rep.match, rep.line()
    rng = random.Random(43)
    crossed = classes_crossed = 0
    for p in (13, 17, 29):
        for sample in (rand_plane_subset, lambda p, n, s: rand_paraboloid_subset(p, 3, n, s)):
            E = sample(p, rng.randint(30, 60), rng.randrange(2**32))
            F = rand_plane_subset(p, rng.randint(30, 60), rng.randrange(2**32)) if E.dim == 2 else E
            doc = counting.counts_json(E)
            tri = oracle.oracle_triangles(E)
            assert triangles(counting.profile(E)) == tri
            assert doc["D"] == oracle.oracle_D(E)
            assert doc["D_star"] == oracle.oracle_D_star(E, allow_ambient_base=True)
            assert doc["prod_size"] == len(oracle.oracle_product(E))
            assert counting.product_set(E, F) == oracle.oracle_product(E, F)
            crossed += tri["degenerate_pairs"] > len(E)
            classes_crossed += counting.profile(E).isotropic_classes > 7
    assert crossed  # some sets had off-diagonal zero pairs
    assert classes_crossed  # and some had more than one block of classes


def assert_profile_matches_oracles(E):
    pr = counting.profile(E)
    assert triangles(pr) == oracle.oracle_triangles(E)
    assert pr.D == oracle.oracle_D(E)
    assert pr.D_star == oracle.oracle_D_star(E, allow_ambient_base=True)
    assert counting.product_set(E) == oracle.oracle_product(E)
    assert pr.prod_size == len(oracle.oracle_product(E))
    if len(E) <= oracle.CAP_QUAD:
        assert pr.M == oracle.oracle_M(E)
    return pr


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: construct_even_2mod4(PrimeField(3), 6, 2), id="even2mod4"),
        pytest.param(lambda: construct_even_0mod4(PrimeField(5), 4, 4), id="even0mod4"),
        pytest.param(lambda: construct_odd_3mod4(PrimeField(3), 7, 2), id="odd3mod4"),
        pytest.param(lambda: isotropic_lines_set(PrimeField(13), 3, 10), id="lines"),
    ],
)
def test_difference_keys_match_oracles(monkeypatch, make):
    """With 7-row blocks, more than 7 zero pairs are grouped by their packed
    difference keys before the classes are found; on the paraboloid lifts and
    the isotropic lines, where many pairs share a difference, every count
    matches the oracles."""
    monkeypatch.setattr(counting, "_block_rows", lambda row_bytes: 7)
    E = make()
    pr = assert_profile_matches_oracles(E)
    assert pr.zero_pairs + pr.base_zero_pairs > 7


@pytest.mark.parametrize("p", [2897, 2903])
def test_profile_matches_oracles_across_the_float32_bound(monkeypatch, p):
    """The planar Gram bound 2 (p - 1)^2 is just under 2^24 at p = 2897,
    where the block is a float32 product, and just over it at p = 2903,
    where it is float64; with coordinates that reach p - 1, every count
    matches the oracles on both sides, from one product a block: the
    distances are derived from the Gram block and the norms."""
    rng = np.random.default_rng(p)
    pts = np.vstack([rng.integers(0, p, (27, 2)), [[p - 1, 0], [0, p - 1], [p - 1, p - 1]]])
    E = PointSet.build(PrimeField(p), 2, pts)
    assert int(E.array.max()) == p - 1
    products = []
    gram = counting._gram_blocks

    def observed(A, B, p):
        blocks = list(gram(A, B, p))
        products.append({block.dtype for _, block in blocks})
        return iter(blocks)

    monkeypatch.setattr(counting, "_gram_blocks", observed)
    assert_profile_matches_oracles(E)
    # one product for the profile's pass and one for product_set's histogram
    assert products == [{np.dtype(np.int32 if p == 2897 else np.int64)}] * 2


def test_zero_pair_byte_cap(monkeypatch):
    # the paraboloid in F_3^3: 12 pairs at distance zero, which the scan finds
    X = enum_paraboloid(PrimeField(3), 3)
    budget = 12 * counting._pair_bytes(3) + 9 * 8  # and the adjacency: 9 rows of one 8-byte word
    uncapped = counting.profile(X)
    assert uncapped.zero_pairs == 12
    # the index lists alone (16 bytes a pair) no longer fit: the class rows,
    # targets and sort arrays count too
    for cap in (16 * 12, budget - 1):
        monkeypatch.setattr(counting, "ZERO_PAIR_BYTE_CAP", cap)
        with pytest.raises(ResourceLimitError, match="bytes"):
            counting.profile(X)
    monkeypatch.setattr(counting, "ZERO_PAIR_BYTE_CAP", budget)
    assert counting.profile(X) == uncapped


@pytest.mark.parametrize("kind", ["plane", "paraboloid"])
def test_null_groups_are_not_charged(monkeypatch, kind):
    """The null groups form no pair, so the byte cap charges only the pairs
    the scans hold: past a cap that the null groups' pairs would pass, a
    planar set over p = 1 mod 4 (no scan at all) and the paraboloid in
    F_5^3 (whose distance scan still runs) are counted as without it."""
    if kind == "plane":
        E = isotropic_lines_set(PrimeField(13), 2, 5, seed=0)  # 20 pairs at distance zero
    else:
        E = enum_paraboloid(PrimeField(5), 3)
    n, uncapped = len(E), counting.profile(E)
    scanned = 0 if kind == "plane" else uncapped.zero_pairs
    null_pairs = uncapped.zero_pairs if kind == "plane" else uncapped.base_zero_pairs
    budget = scanned * counting._pair_bytes(E.dim) + (n * counting._adjacency_width(n) if scanned else 0)
    assert null_pairs > 0 and (kind == "plane" or scanned > 0)
    monkeypatch.setattr(counting, "ZERO_PAIR_BYTE_CAP", budget)
    assert counting.profile(E) == uncapped


@pytest.mark.parametrize("kind", ["lines", "odd3mod4", "paraboloid"])
def test_zero_pair_budget_bounds_traced_peak(monkeypatch, kind):
    """The bytes profile allocates stay within _pair_bytes per table row.

    8-row blocks and 8-edge chunks make the per-pair arrays dominate the
    O(block * (n + p)) rest, so an array of a word per pair that escaped the
    budget would show. The zero pairs go through the grouping by packed
    difference keys; on the random paraboloid subset about four in five have
    a difference y - z of their own, which is the grouping's worst case:
    a class row for nearly every pair. The null groups of the lines hold no
    pair, so their peak stays within the four blocks and O(n) words of
    `test_profile_memory_is_blocks`, under a tenth of the rows' budget.
    """
    if kind == "lines":
        E = isotropic_lines_set(PrimeField(149), 2, 149, seed=0)  # 22 201 pairs
    elif kind == "odd3mod4":
        E = construct_odd_3mod4(PrimeField(11), 7, 5, seed=0)  # 72 600 rows
    else:
        E = rand_paraboloid_subset(13, 4, 250, seed=0)  # 5 056 rows
    monkeypatch.setattr(counting, "_block_rows", lambda row_bytes: 8)
    counting.profile(E)  # lazy set-up (E.array, numpy's first calls) outside the trace
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        pr = counting.profile(E)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # class-table rows: the distance-zero pairs, plus the base-zero pairs on a
    # paraboloid (off one they are the same pairs)
    rows = pr.zero_pairs + (pr.base_zero_pairs if on_paraboloid(E) else 0)
    # over p = 13, with many more rows a point most pairs would share their
    # difference with others, and the grouping's worst case would not show
    assert rows > (20 if kind == "paraboloid" else 50) * len(E)
    if kind == "lines":  # the bound of test_profile_memory_is_blocks, at blocks of 8 rows of n words
        assert peak <= 4 * (8 * 8 * len(E)) + 32 * 8 * len(E)
    else:
        assert peak <= rows * counting._pair_bytes(E.dim)


def test_zero_pair_byte_cap_counts_the_adjacency(monkeypatch):
    # the 103 points (x, 2x, 0) of F_103^3, anisotropic, and (0, 0, 1): two
    # pairs at distance zero, 1 + 5 x^2 = 0 at x = 12 and x = 91, whose two
    # class-table rows take less than the adjacency: 104 rows of 104 bits,
    # padded to two 8-byte words
    X = PointSet.build(PrimeField(103), 3, [(x, 2 * x % 103, 0) for x in range(103)] + [(0, 0, 1)])
    rows, bitmap = 2 * counting._pair_bytes(3), 104 * 16
    assert counting.profile(X).zero_pairs == 2 and rows < bitmap
    for cap in (bitmap - 1, rows + bitmap - 1):
        monkeypatch.setattr(counting, "ZERO_PAIR_BYTE_CAP", cap)
        with pytest.raises(ResourceLimitError, match="bytes"):
            counting.profile(X)
    monkeypatch.setattr(counting, "ZERO_PAIR_BYTE_CAP", rows + bitmap)
    assert counting.profile(X).t_zero_triples == 104 + 6 * 2


@pytest.mark.parametrize("block_bytes", [1 << 18, None])
def test_profile_memory_is_blocks(monkeypatch, block_bytes):
    """Without zero pairs, profile holds four row blocks of about
    _BLOCK_BYTES (the Gram block and the distances derived from it, each
    with its quotient) and O(n) words: on 3000 points of the anisotropic
    plane over p = 103, 512-row blocks held 12 MB each."""
    if block_bytes:
        monkeypatch.setattr(counting, "_BLOCK_BYTES", block_bytes)
    E = rand_plane_subset(103, 3000, seed=2)
    counting.profile(E)  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        pr = counting.profile(E)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert pr.zero_pairs == 0
    assert peak <= 4 * counting._BLOCK_BYTES + 32 * 8 * len(E)


def test_triangles_match_trace():
    """T = trace(Z^3) / 6 for the adjacency Z: random graphs, the empty graph
    and a clique, on n not a multiple of 8, also in edge chunks of one."""
    rng = np.random.default_rng(11)
    graphs = [(13, 0.0), (13, 1.0)] + [(n, rng.uniform(0.05, 0.6)) for n in (1, 7, 9, 30, 61)]
    for n, density in graphs:
        upper = np.triu(rng.random((n, n)) < density, 1)
        i, j = np.nonzero(upper)  # i < j in row-major order
        z = (upper | upper.T).astype(np.int64)
        expect = int(np.trace(z @ z @ z)) // 6
        assert counting._triangles(i, j, n) == expect
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(counting, "_block_rows", lambda row_bytes: 1)
            assert counting._triangles(i, j, n) == expect
        if density == 1.0:
            assert expect == 13 * 12 * 11 // 6
        elif density == 0.0:
            assert expect == 0 and len(i) == 0


# -- the class corrections against a dense reference beyond the oracle caps ---


def _dense_profile(E):
    """Every Profile field from n x n gram/dist matrices: c_both as
    trace(Z^3), c_base and D*'s correction as column agreements."""
    p, n, arr = E.field.p, len(E), E.array
    gram = (arr @ arr.T) % p
    nrm = np.diag(gram)
    dist = (nrm[:, None] + nrm - 2 * gram) % p
    base = arr[:, :-1] if on_paraboloid(E) else arr
    bn = (base * base).sum(axis=1) % p
    base_dist = (bn[:, None] + bn - 2 * (base @ base.T)) % p

    def square_sums(m):
        return sum(int((np.bincount(row, minlength=p) ** 2).sum()) for row in m)

    zero = dist == 0
    z = zero.astype(np.float64)
    c_both = int(round(float(((z @ z) * z.T).sum())))
    c_base = sum(int((dist[:, zero[y]] == dist[:, [y]]).sum()) for y in range(n))
    star_fix = sum(int((gram[:, base_dist[y] == 0] == gram[:, [y]]).sum()) for y in range(n))
    zeros_per_row = zero.sum(axis=1)
    total_iso, eq_zero = square_sums(dist), int((zeros_per_row**2).sum())
    t_de = eq_zero + c_base - c_both
    D = square_sums(gram)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    i, j = np.nonzero((zero | (base_dist == 0)) & upper)
    w = (arr[i] - arr[j]) % p
    lead = w[np.arange(len(w)), (w != 0).argmax(axis=1)]
    u = w * np.array([pow(int(t), -1, p) for t in lead], dtype=np.int64)[:, None] % p
    dots = np.bincount(gram.ravel(), minlength=p).tolist()
    return counting.Profile(
        prod_size=sum(1 for c in dots if c),
        M=sum(c * c for c in dots),
        D=D,
        D_star=D - star_fix,
        t_nde=total_iso - t_de,
        t_de=t_de,
        t_star=total_iso - c_base,
        degenerate_pairs=int(zeros_per_row.sum()),
        t_nde_raw=total_iso - eq_zero,
        t_zero_triples=c_both,
        isosceles_total=total_iso,
        zero_pairs=int((zero & upper).sum()),
        base_zero_pairs=int(((base_dist == 0) & upper).sum()),
        isotropic_classes=len(np.unique(u, axis=0)),
    )


@pytest.fixture(scope="module", params=["odd3mod4", "paraboloid", "paraboloid_103", "plane_103"])
def dense_case(request):
    """The p = 11, d = 7, k = 5 construction (605 points; its zero graph is
    a union of cliques) and 1500 points of the p = 401 paraboloid (more
    classes than one block holds). Over p = 103 = 3 mod 4, profile skips a
    scan: for base-zero pairs on 483 points of the paraboloid in F_p^3,
    and for distance-zero pairs on 1200 points of the plane."""
    E = {
        "odd3mod4": lambda: construct_odd_3mod4(PrimeField(11), 7, 5, seed=0),
        "paraboloid": lambda: rand_paraboloid_subset(401, 3, 1500, seed=3),
        "paraboloid_103": lambda: rand_paraboloid_subset(103, 3, 483, seed=8),
        "plane_103": lambda: rand_plane_subset(103, 1200, seed=9),
    }[request.param]()
    return request.param, E, _dense_profile(E)


def test_profile_matches_dense_reference(dense_case, monkeypatch):
    case, E, ref = dense_case
    if case == "plane_103":
        # an anisotropic plane: only the diagonal is at distance zero
        assert ref.zero_pairs == 0 and ref.t_zero_triples == len(E)
    else:
        assert ref.zero_pairs > len(E) and ref.t_zero_triples > len(E)
    if case == "paraboloid":
        assert ref.isotropic_classes > counting._block_rows(8 * max(len(E), E.field.p))
    if case == "paraboloid_103":
        assert ref.base_zero_pairs == 0  # an anisotropic base plane
    assert counting.profile(E) == ref
    # blocks and edge chunks of a single row and of a few rows
    for rows in (1, 100):
        monkeypatch.setattr(counting, "_block_rows", lambda row_bytes: rows)
        assert counting.profile(E) == ref


@pytest.mark.parametrize("p, d, size", [(13, 4, 150), (23, 4, 200), (29, 4, 300), (7, 5, 150)])
def test_base_scan_by_square_table(monkeypatch, p, d, size):
    """On a paraboloid from d = 4 on, over p = 1 and 3 mod 4, the row blocks
    are scanned for the base-zero pairs, those with ||y - z|| = (y_d - z_d)^2
    (an array target of `_upper_zeros` read from the table of squares); at
    1-row and 7-row blocks every Profile field, the base-zero pair count and
    D* included, matches the dense reference."""
    E = rand_paraboloid_subset(p, d, size, seed=p)
    ref = _dense_profile(E)
    assert ref.base_zero_pairs > 0
    scan, square_scans = counting._upper_zeros, []

    def spy(lo, block, target=0):
        square_scans.append(isinstance(target, np.ndarray))
        return scan(lo, block, target)

    monkeypatch.setattr(counting, "_upper_zeros", spy)
    for rows in (1, 7):
        monkeypatch.setattr(counting, "_block_rows", lambda row_bytes: rows)
        square_scans.clear()
        assert counting.profile(E) == ref
        assert any(square_scans)


def _python_gram_mod(A, B, p):
    return [[sum(int(a) * int(b) for a, b in zip(r, s)) % p for s in B.tolist()] for r in A.tolist()]


@pytest.mark.parametrize(
    "a_max, b_max",
    [
        (4_097, 1_365),  # 3 a b = 2^24 - 1, the largest bound below 2^24: float32, int32 blocks
        (5_592_406, 1),  # 3 a b = 2^24 + 2: float64
        (134_217_730, 22_369_621),  # 3 a b = 2^53 - 2, the largest bound below 2^53: float64
        (28_059_810_762_433, 107),  # 3 a b = 2^53 + 1, the smallest at or above it: int64
        (2_147_483_647, 1_431_655_766),  # 3 a b = 2^63 - 2, the largest int64 holds
    ],
)
def test_gram_blocks_exact_at_the_bounds(a_max, b_max):
    """Every block equals the Python-int product mod p when the bound
    3 max|A| max|B| sits on either side of 2^24 and of 2^53 and just below
    2^63, and the blocks are int32 exactly below 2^24. The rows reach the
    extremes, B's signs included, so sums of +-bound and odd values near
    2^24 and 2^53, which float32 and float64 cannot hold, occur."""
    rng = np.random.default_rng(a_max % 1000)
    A = np.vstack([np.full((2, 3), a_max), rng.integers(0, a_max + 1, (10, 3)), [[a_max, 1, 0], [a_max, a_max, a_max - 1]]])
    B = np.vstack([np.full((1, 3), b_max), np.full((1, 3), -b_max), rng.integers(-b_max, b_max + 1, (9, 3))])
    bound = 3 * a_max * b_max
    assert bound in (2**24 - 1, 2**24 + 2, 2**53 - 2, 2**53 + 1, 2**63 - 2)
    for p in (101, 2**31 - 1):
        got = np.zeros((len(A), len(B)), dtype=np.int64)
        for lo, block in counting._gram_blocks(A, B, p):
            assert block.dtype == (np.int32 if bound < 2**24 else np.int64)
            got[lo : lo + len(block)] = block
        assert got.tolist() == _python_gram_mod(A, B, p)


def test_gram_blocks_refuse_int64_overflow():
    # 3 (p - 1)^2 > 2^63 at p = 2^31 - 1: int64 products would wrap
    p = 2**31 - 1
    for a_max, b_max in ((p - 1, p - 1), (3_074_457_345_618_258_603, 1)):  # the second: 3 a b = 2^63 + 1
        A, B = np.full((2, 3), a_max), np.full((2, 3), b_max)
        with pytest.raises(ResourceLimitError, match="overflow int64"):
            next(counting._gram_blocks(A, B, p))


def test_gram_blocks_refuse_at_the_call():
    # before a caller builds its p-sized tables, not at the first block
    A = np.full((2, 3), 2**31 - 2)
    with pytest.raises(ResourceLimitError, match="overflow int64"):
        counting._gram_blocks(A, A, 2**31 - 1)


@pytest.mark.parametrize("p", [3, 11, 1009, 2**31 - 1])
def test_row_classes_match_sorted_rows(p):
    """Packed keys (one at p = 3 and 11, two or more from d = 7 at 1009 and
    from d = 3 at 2^31 - 1) give the distinct rows in lexicographic order."""
    rng = np.random.default_rng(p % 1000)
    for d in range(1, 10):
        pool = rng.integers(0, p, (40, d))
        pool[:4] = [0], [p - 1], [1], [p - 2]  # extreme digits in every position
        pool[4:8, -1] = pool[0, -1]  # rows that differ only before the last key
        u = pool[rng.integers(0, len(pool), 300)]
        first, cls = counting._distinct(counting._packed_keys(u, p))
        classes = u[first]
        rows = sorted(set(map(tuple, u.tolist())))
        assert classes.tolist() == [list(r) for r in rows]
        index = {r: c for c, r in enumerate(rows)}
        assert cls.tolist() == [index[r] for r in map(tuple, u.tolist())]


def test_upper_zeros_matches_full_scan():
    # the pairs i < j with a zero at block[i - lo, j], in row-major order
    block = np.random.default_rng(3).integers(0, 3, size=(7, 20))
    for lo in (0, 5, 13):
        i, j = np.nonzero(block == 0)
        i = i + lo
        expect = np.stack([i[i < j], j[i < j]])
        assert np.array_equal(counting._upper_zeros(lo, block), expect)


@pytest.mark.parametrize(
    "make, isotropic",
    [
        (lambda: rand_plane_subset(103, 1100, seed=1), 0),
        (lambda: rand_plane_subset(101, 1100, seed=1), 1),
        (lambda: rand_paraboloid_subset(103, 3, 1100, seed=1), 1),
        (lambda: rand_paraboloid_subset(101, 3, 1100, seed=1), 2),
        (lambda: construct_odd_3mod4(PrimeField(11), 7, 5, seed=0), 2),
    ],
)
def test_zero_scans_only_where_isotropic(monkeypatch, make, isotropic):
    """profile scans each row block for distance-zero pairs where the sum
    of d squares is isotropic and, on a paraboloid, for base-zero pairs where
    the sum of d - 1 squares is: `isotropic` forms. Over p = 1 mod 4 the two
    null lines of the plane replace one of those scans, for a planar set
    (1 -> 0 scans a block at p = 101) and for the base of a paraboloid set in
    F_p^3 (2 -> 1)."""
    E = make()
    null_lines = E.field.p % 4 == 1 and (E.dim == 2 or (E.dim == 3 and on_paraboloid(E)))
    blocks = -(-len(E) // counting._block_rows(8 * max(len(E), E.field.p)))
    calls = []
    scan = counting._upper_zeros
    monkeypatch.setattr(counting, "_upper_zeros", lambda lo, *args: calls.append(lo) or scan(lo, *args))
    counting.profile(E)
    assert len(calls) == (isotropic - null_lines) * blocks


def test_planar_isotropic_classes():
    # the obstruction in the plane: over p = 1 mod 4 the zero-distance
    # differences lie on the two slope +-i lines; over p = 3 mod 4 the only
    # isotropic vector is 0
    pr = counting.profile(rand_plane_subset(101, 1500, seed=6))
    assert pr.zero_pairs > 0 and pr.isotropic_classes == 2
    assert pr.base_zero_pairs == pr.zero_pairs
    pr = counting.profile(rand_plane_subset(103, 1500, seed=6))
    assert pr.zero_pairs == pr.base_zero_pairs == pr.isotropic_classes == 0


@st.composite
def null_line_sets(draw):
    """A planar set, or its lift to the paraboloid in F_p^3, over p = 1 mod 4,
    whose base points lie mostly on a few null lines x_1 + c x_2 = lambda
    (c = +-i, lambda = 0 often: those points have x_3 = ||xbar|| = 0), and
    the rest anywhere; 1 to 40 points."""
    p = draw(st.sampled_from([5, 13, 17, 29, 101]))
    i = PrimeField(p).sqrt_minus_one()
    line = st.tuples(st.sampled_from([i, p - i]), st.sampled_from([0, 0, 1, p - 1, p // 2]))  # (c, lambda)
    lines = draw(st.lists(line, min_size=1, max_size=3))
    coords = st.integers(0, p - 1)
    on_line = st.tuples(st.sampled_from(lines), coords).map(lambda lt: ((lt[0][1] - lt[0][0] * lt[1]) % p, lt[1]))
    base = draw(st.lists(st.one_of(on_line, on_line, st.tuples(coords, coords)), min_size=1, max_size=40))
    if draw(st.booleans()):
        return PointSet.build(PrimeField(p), 2, base)
    return PointSet.build(PrimeField(p), 3, [(a, b, (a * a + b * b) % p) for a, b in base])


@settings(max_examples=150, deadline=None)
@given(null_line_sets())
def test_null_line_route_matches_the_oracles(E):
    """The null lines give a planar set's zero pairs and a paraboloid set's
    base-zero pairs in F_p^3 without a scan; every Profile field, work
    counters included, matches the dense reference, and every count the
    triple- and quadruple-loop oracles, which share no step with profile."""
    assert E.dim == 2 or on_paraboloid(E)
    assert assert_profile_matches_oracles(E) == _dense_profile(E)


def _translate(E, shift):
    return PointSet.build(E.field, E.dim, (tuple(a + b for a, b in zip(x, shift)) for x in E))


def _base_isometry(E, perm, signs):
    """Permute and negate the base coordinates (all of them off a paraboloid)."""
    k = len(perm)
    return PointSet.build(
        E.field,
        E.dim,
        (tuple(signs[i] * x[perm[i]] for i in range(k)) + x[k:] for x in E),
    )


@pytest.fixture(scope="module", params=["paraboloid", "lines"])
def large_set(request):
    """Sets of more than 1100 points over p = 1 mod 4: three default row
    blocks, with off-diagonal pairs at distance zero."""
    if request.param == "paraboloid":
        E = rand_paraboloid_subset(37, 3, 1100, seed=5)
    else:
        E = isotropic_lines_set(PrimeField(101), 12, 95, seed=2)
    return E, counting.profile(E)


def test_large_set_identities(large_set):
    E, pr = large_set
    n, p, tri = len(E), E.field.p, pr
    assert n >= 1100 and tri.degenerate_pairs > n
    arr = E.array
    nrm = (arr * arr).sum(axis=1) % p
    dist = (nrm[:, None] + nrm - 2 * (arr @ arr.T)) % p
    iso = sum(int((np.bincount(row, minlength=p) ** 2).sum()) for row in dist)
    assert tri.t_nde + tri.t_de == iso
    assert tri.t_nde <= tri.t_star
    assert pr.D_star <= pr.D


def test_large_set_translation_invariance(large_set):
    E, pr = large_set
    rng = random.Random(47)
    shift = [rng.randrange(E.field.p) for _ in range(E.dim)]
    assert triangles(counting.profile(_translate(E, shift))) == triangles(pr)


def test_large_set_base_isometry_invariance(large_set):
    E, pr = large_set
    k = E.dim - 1 if on_paraboloid(E) else E.dim
    rng = random.Random(53)
    perm = rng.sample(range(k), k)
    signs = [rng.choice([1, -1]) for _ in range(k)]
    signs[0] = -1
    moved = _base_isometry(E, perm, signs)
    assert moved != E
    # equal dot histograms carry |prod| and M along
    assert counting.profile(moved) == pr


def _returns_profile_field(fn):
    """Whether fn's body, after an optional docstring, is one `return
    profile(...).<attr>` (attribute chains included)."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    node = body[0].value
    if not isinstance(node, ast.Attribute):
        return False
    while isinstance(node, ast.Attribute):
        node = node.value
    callee = node.func if isinstance(node, ast.Call) else None
    return getattr(callee, "id", getattr(callee, "attr", None)) == "profile"


def test_no_function_returns_one_profile_field():
    """A count of one set is read from profile(E); a wrapper that returns one
    field of it is that field."""
    wrappers = []
    for path in sorted(Path(counting.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _returns_profile_field(node):
                wrappers.append(f"{path.name}:{node.lineno} {node.name}")
    assert not wrappers, wrappers
