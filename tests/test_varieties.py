import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffgeom import oracle
from ffgeom.field import PrimeField
from ffgeom.varieties import (
    PointSet,
    ResourceLimitError,
    _check_power_cap,
    bar_projection,
    enum_paraboloid,
    enum_sphere,
    on_paraboloid,
    random_paraboloid_subset,
    random_space_subset,
    random_subset,
    restrict_nonzero_base,
)


def brute_circle_count(p, r):
    return sum(1 for x in range(p) for y in range(p) if (x * x + y * y) % p == r % p)


def test_paraboloid_small():
    ps = enum_paraboloid(PrimeField(3), 3)
    assert len(ps) == 9
    assert (1, 2, 2) in ps  # 1 + 4 = 5 = 2 mod 3
    assert (0, 0, 0) in ps


def test_paraboloid_defining_equation():
    f = PrimeField(7)
    ps = enum_paraboloid(f, 3)
    assert len(ps) == 49
    assert on_paraboloid(ps)
    assert all(pt[2] == (pt[0] ** 2 + pt[1] ** 2) % 7 for pt in ps)


def test_sphere_examples():
    assert set(enum_sphere(PrimeField(3), 2, 1).points) == {(1, 0), (2, 0), (0, 1), (0, 2)}
    assert enum_sphere(PrimeField(7), 2, 0).points == ((0, 0),)
    assert len(enum_sphere(PrimeField(13), 2, 0)) == 25  # two isotropic lines y = +-5x


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_circle_size_formula(p):
    f = PrimeField(p)
    for r in range(1, p):
        assert len(enum_sphere(f, 2, r)) == p - (-1) ** ((p - 1) // 2) == brute_circle_count(p, r)


@pytest.mark.parametrize("p", [3, 7, 13, 31])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sphere_size_envelope(p, n):
    f = PrimeField(p)
    lo = p ** (n - 1) - 2 * p ** (n / 2)
    hi = p ** (n - 1) + 2 * p ** (n / 2)
    for r in range(p):
        assert lo <= len(enum_sphere(f, n, r)) <= hi


def test_sphere_dimension_one():
    f = PrimeField(7)
    assert enum_sphere(f, 1, 2).points == ((3,), (4,))
    assert enum_sphere(f, 1, 3).points == ()


def test_enumeration_cap():
    with pytest.raises(ResourceLimitError):
        enum_paraboloid(PrimeField(101), 4, cap=1000)
    with pytest.raises(ResourceLimitError):
        enum_sphere(PrimeField(101), 4, 1, cap=1000)


def test_random_subset_contracts():
    f = PrimeField(11)
    P = enum_paraboloid(f, 3)
    full = random_subset(P, len(P), seed=5)
    assert full.points == P.points
    a = random_subset(P, 17, seed=99)
    b = random_subset(P, 17, seed=99)
    assert a.points == b.points
    assert len(a) == 17
    assert random_subset(P, 17, seed=100).points != a.points
    with pytest.raises(ValueError):
        random_subset(P, len(P) + 1, seed=0)
    with pytest.raises(ValueError, match="sample size -1 is negative"):
        random_subset(P, -1, seed=0)


def test_restrict_nonzero_base():
    # p = 3 mod 4: only the origin's base is isotropic
    E7 = enum_paraboloid(PrimeField(7), 3)
    r7 = restrict_nonzero_base(E7)
    assert len(r7) == 48 and (0, 0, 0) not in r7
    # p = 1 mod 4: the base cone has 2p - 1 points
    E13 = enum_paraboloid(PrimeField(13), 3)
    r13 = restrict_nonzero_base(E13)
    assert len(r13) == 169 - 25
    assert all(oracle.norm(pt[:2], 13) != 0 for pt in r13)


def test_bar_projection_dedupes():
    f = PrimeField(5)
    ps = PointSet.build(f, 2, [(1, 2), (1, 3), (2, 0)])
    assert bar_projection(ps).points == ((1,), (2,))


def test_points_sorted_and_deduped():
    f = PrimeField(5)
    ps = PointSet.build(f, 2, [(4, 4), (0, 1), (4, 4), (9, 6)])  # (9,6) reduces to (4,1)
    assert ps.points == ((0, 1), (4, 1), (4, 4))
    with pytest.raises(ValueError):
        PointSet.build(f, 2, [(1, 2, 3)])


def _assert_canonical(ps):
    arr = ps.array
    assert arr.dtype == np.int64 and arr.shape == (len(ps), ps.dim)
    assert not arr.flags.writeable
    assert ((0 <= arr) & (arr < ps.field.p)).all()
    # sorted and unique: the points in order, as tuples, strictly increase
    assert all(a < b for a, b in zip(ps.points, ps.points[1:]))
    assert ps.points == tuple(map(tuple, arr.tolist()))


def test_build_sources_agree():
    f = PrimeField(7)
    raw = [(9, -1), (3, 4), (2, 6), (3, 4), (0, 0), (-7, 14)]
    from_list = PointSet.build(f, 2, raw)
    from_gen = PointSet.build(f, 2, (pt for pt in raw))
    from_array = PointSet.build(f, 2, np.array(raw))
    assert from_list == from_gen == from_array
    assert hash(from_list) == hash(from_gen) == hash(from_array)
    assert from_list.points == ((0, 0), (2, 6), (3, 4))
    for ps in (from_list, from_gen, from_array):
        _assert_canonical(ps)
    assert from_list != PointSet.build(f, 2, raw[:2])
    assert from_list != PointSet.build(PrimeField(11), 2, raw)
    assert PointSet.build(f, 2, []) == PointSet.build(f, 2, np.zeros((0, 2), dtype=np.int64))


def test_build_sorts_only_unsorted_input(monkeypatch):
    """Rows already strictly increasing (after reduction mod p) skip the
    lexsort; unsorted rows and repeated rows, adjacent or apart, still come
    out sorted and deduplicated."""
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
    cases = {
        "sorted": ([(0, 5), (1, 0), (1, 3), (6, 6)], False),
        "sorted mod p": ([(7, 1), (0, 2), (8, -6)], False),
        "unsorted": ([(1, 0), (0, 5)], True),
        "unsorted in a later column": ([(0, 5), (0, 3)], True),
        "adjacent repeat": ([(0, 1), (0, 1), (2, 2)], True),
        "repeat apart": ([(0, 1), (2, 2), (0, 1)], True),
        "single": ([(3, 3)], False),
        "empty": ([], False),
    }
    for name, (raw, sorts) in cases.items():
        calls.clear()
        ps = PointSet.build(PrimeField(7), 2, raw)
        _assert_canonical(ps)
        assert ps.points == tuple(sorted({(a % 7, b % 7) for a, b in raw})), name
        assert bool(calls) == sorts, name
    rng = np.random.default_rng(5)
    for _ in range(50):
        raw = rng.integers(0, 4, size=(int(rng.integers(0, 12)), 3))
        ps = PointSet.build(PrimeField(5), 3, raw)
        _assert_canonical(ps)
        assert ps.points == tuple(sorted(set(map(tuple, raw.tolist()))))


def test_array_is_read_only_and_build_copies():
    f = PrimeField(5)
    src = np.array([[4, 4], [0, 1]])
    ps = PointSet.build(f, 2, src)
    src[0, 0] = 1
    assert ps.points == ((0, 1), (4, 4))
    with pytest.raises(ValueError):
        ps.array[0, 0] = 3
    # building from a PointSet's own read-only array
    assert PointSet.build(f, 2, ps.array) == ps


@pytest.mark.parametrize("make", ["paraboloid", "plane", "sphere", "subset", "sample", "projection", "text"])
def test_constructors_give_canonical_sets(make):
    f = PrimeField(13)
    P = enum_paraboloid(f, 3)
    ps = {
        "paraboloid": lambda: P,
        "plane": lambda: random_space_subset(f, 2, 169, seed=1),
        "sphere": lambda: enum_sphere(f, 3, 5),
        "subset": lambda: random_subset(P, 40, seed=1),
        "sample": lambda: random_paraboloid_subset(f, 3, 40, seed=1),
        "projection": lambda: bar_projection(random_subset(P, 40, seed=1)),
        "text": lambda: PointSet.from_text(random_subset(P, 40, seed=1).to_text()),
    }[make]()
    _assert_canonical(ps)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sphere_matches_brute_force(p, n):
    f = PrimeField(p)
    space = list(itertools.product(range(p), repeat=n))
    for r in range(p):
        expect = tuple(v for v in space if sum(c * c for c in v) % p == r)
        assert enum_sphere(f, n, r).points == expect


def test_random_subset_same_indices_as_sample():
    # the subset is the set of the points at the indices random.Random(seed)
    # samples from the sorted source
    P = enum_paraboloid(PrimeField(11), 3)
    idx = random.Random(7).sample(range(len(P)), 30)
    assert random_subset(P, 30, seed=7).points == tuple(sorted(P.points[i] for i in idx))


@pytest.mark.parametrize(
    "p, d, size, seed",
    [(23, 3, 66, 1), (401, 3, 1500, 7), (101, 4, 10201, 3), (7, 5, 300, 2), (13, 2, 5, 9), (11, 3, 0, 4), (11, 3, 121, 5)],
)
def test_paraboloid_sample_is_the_enumerated_draw(p, d, size, seed):
    # the last two cases are the empty sample and the whole paraboloid
    F = PrimeField(p)
    expect = random_subset(enum_paraboloid(F, d), size, seed).to_text()
    assert random_paraboloid_subset(F, d, size, seed).to_text() == expect


def test_power_cap_forms_no_power_past_the_bit_length():
    # 2^26 <= 1e8 < 2^27, and 1e8 has 27 bits: up to the exponent 27 the
    # count is compared exactly, past it refused as a power
    _check_power_cap(1, 2, 26, None, "points")
    with pytest.raises(ResourceLimitError, match=r"^points: 134217728 exceeds cap 100000000$"):
        _check_power_cap(1, 2, 27, None, "points")
    with pytest.raises(ResourceLimitError, match=r"^points: 2\^28 exceeds cap 100000000$"):
        _check_power_cap(1, 2, 28, None, "points")
    with pytest.raises(ResourceLimitError, match=r"^points: 3 \* 7\^10000000000000000000000 exceeds cap 5$"):
        _check_power_cap(3, 7, 10**22, 5, "points")
    _check_power_cap(3, 7, 0, 5, "points")


def test_space_sample_is_the_enumerated_draw():
    F = PrimeField(31)
    plane = PointSet.build(F, 2, itertools.product(range(31), repeat=2))
    assert random_space_subset(F, 2, 100, 4) == random_subset(plane, 100, 4)


def test_norms_that_would_wrap_are_refused():
    # (p - 1, 1) lies on y = x^2, but (p - 1)^2 wraps int64 at p = 10^18 + 3
    p = 10**18 + 3
    E = PointSet.build(PrimeField(p), 2, [(p - 1, 1)])
    for fn in (on_paraboloid, restrict_nonzero_base):
        with pytest.raises(ValueError, match="norms of 1 coordinates overflow int64"):
            fn(E)
    # past the p bound, small entries are still exact
    assert on_paraboloid(PointSet.build(PrimeField(p), 2, [(2, 4), (3, 9)]))


def test_paraboloid_sample_refuses_wrapping_norms():
    # p^(d-1) fits int64 here, but a norm up to (p - 1)^2 would wrap
    with pytest.raises(ValueError, match="overflow int64"):
        random_paraboloid_subset(PrimeField(10**18 + 3), 2, 3, seed=0)


def test_paraboloid_sample_memory_is_in_the_sample():
    # 20 000 points of the 10^12-point paraboloid over F_10007^4
    size = 20_000
    tracemalloc.start()
    try:
        E = random_paraboloid_subset(PrimeField(10007), 4, size, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(E) == size and on_paraboloid(E)
    assert peak < 400 * size


@settings(max_examples=40, deadline=None)
@given(
    st.sets(st.tuples(st.integers(0, 10), st.integers(0, 10)), max_size=25),
    st.tuples(st.integers(0, 10), st.integers(0, 10)),
)
def test_membership_matches_sequence(pts, probe):
    ps = PointSet.build(PrimeField(11), 2, pts)
    assert (probe in ps) == (probe in set(ps.points))
    assert len(set(ps.points)) == len(ps)


def test_text_round_trip_bit_exact(tmp_path):
    f = PrimeField(13)
    ps = random_subset(enum_paraboloid(f, 3), 29, seed=3)
    path = tmp_path / "set.txt"
    ps.save(path)
    loaded = PointSet.load(path)
    assert loaded == ps
    loaded.save(tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


def test_text_format():
    f = PrimeField(7)
    assert PointSet.build(f, 2, [(3, 4), (1, 12)]).to_text() == "7 2 2\n1 5\n3 4\n"
    assert PointSet.build(f, 3, []).to_text() == "7 3 0\n"
    assert len(PointSet.from_text("7 3 0\n")) == 0


def test_from_text_rejects_malformed():
    with pytest.raises(ValueError):
        PointSet.from_text("")
    with pytest.raises(ValueError):
        PointSet.from_text("7 2\n0 0\n")
    with pytest.raises(ValueError):
        PointSet.from_text("7 2 2\n0 0\n")
    with pytest.raises(ValueError, match="expected 1 points, found 2"):
        PointSet.from_text("7 2 1\n1 2\n3 4\n")
    assert len(PointSet.from_text("7 2 2\n1 2\n3 4\n\n")) == 2


F7 = PrimeField(7)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: PointSet.build(F7, 0, []), "dimension must be at least 1"),
        (lambda: PointSet.build(F7, 2, [(1, 2)]).union(PointSet.build(PrimeField(11), 2, [(1, 2)])), "matching field"),
        (lambda: PointSet.from_text("7 2 2\n1 2\n1 2\n"), "duplicate points"),
        (lambda: enum_paraboloid(F7, 1), "paraboloid needs dimension >= 2"),
        (lambda: enum_sphere(F7, 0, 1), "sphere needs dimension >= 1"),
        (lambda: bar_projection(PointSet.build(F7, 1, [(3,)])), "projection needs dimension >= 2"),
    ],
    ids=["build-dim-0", "union-across-fields", "repeated-point", "paraboloid-d-1", "sphere-n-0", "project-a-line"],
)
def test_requests_without_a_set_are_refused(make, message):
    with pytest.raises(ValueError, match=message):
        make()
