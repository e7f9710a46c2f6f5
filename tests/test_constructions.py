import itertools
import time

import numpy as np
import pytest

from ffgeom import counting, constructions as cn, oracle
from ffgeom.field import PrimeField
from ffgeom.oracle import oracle_product
from ffgeom.varieties import PointSet, ResourceLimitError, on_paraboloid

# p - 1 = 2q and 4q with q prime: trial division of p - 1 would run to sqrt(q) ~ 5e8
SAFE_PRIME_3MOD4, SAFE_PRIME_1MOD4 = 1000000000000007243, 1000000000000014653


def test_mult_subgroup_examples():
    f7 = PrimeField(7)
    assert cn.mult_subgroup(f7, 3) == (1, 2, 4)
    assert cn.mult_subgroup(f7, 1) == (1,)
    assert cn.mult_subgroup(PrimeField(13), 4) == (1, 5, 8, 12)
    with pytest.raises(ValueError):
        cn.mult_subgroup(f7, 4)  # 4 does not divide 6


def test_mult_subgroup_closed():
    A = cn.mult_subgroup(PrimeField(31), 15)
    for a in A:
        for b in A:
            assert a * b % 31 in A


@pytest.mark.parametrize("p, k", [(7, 3), (13, 4), (1009, 504), (1999, 999)])
def test_mult_subgroup_is_the_kth_roots_of_unity(p, k):
    A = cn.mult_subgroup(PrimeField(p), k)
    assert isinstance(A, tuple) and list(A) == sorted(A)
    assert A == tuple(x for x in range(1, p) if pow(x, k, p) == 1)


@pytest.mark.parametrize("p", [SAFE_PRIME_3MOD4, SAFE_PRIME_1MOD4])
def test_mult_subgroup_never_factors_p_minus_1(p):
    start = time.perf_counter()
    assert cn.mult_subgroup(PrimeField(p), 2) == (1, p - 1)
    assert time.perf_counter() - start < 1


def witt_index(p, m):
    """m//2, less one when -1 is a nonsquare (p = 3 mod 4) and m = 2 mod 4."""
    return m // 2 - (p % 4 == 3 and m % 4 == 2)


def brute_witt_index(p, m):
    """Grow a totally isotropic subspace of F_p^m one vector at a time over
    every vector in lexicographic order, until no isotropic vector orthogonal
    to it lies outside it. Witt's theorem makes every such maximal subspace
    the same size."""
    space = np.array(list(itertools.product(range(p), repeat=m)), dtype=np.int64)
    place = p ** np.arange(m - 1, -1, -1)  # row index of a vector: its base-p digits
    open_ = (space * space).sum(axis=1) % p == 0
    basis = []
    while True:
        open_[cn.span_points(PrimeField(p), basis, m) @ place] = False
        if not open_.any():
            return len(basis)
        v = space[np.argmax(open_)]
        basis.append(tuple(v))
        open_ &= space @ v % p == 0


def test_isotropic_frame_found_and_verified(monkeypatch):
    # a^2 + b^2 = -1 first at (a, b) = (2, 3) in F_7
    f7 = PrimeField(7)
    assert cn.isotropic_frame(f7, 4, 2) == ((2, 3, 1, 0), (3, 5, 0, 1))
    assert cn.isotropic_frame(f7, 7, 3) == ((2, 3, 1, 0, 0, 0, 0), (3, 5, 0, 1, 0, 0, 0), (0, 0, 0, 0, 2, 3, 1))
    f13 = PrimeField(13)  # i = 5
    assert cn.isotropic_frame(f13, 5, 2) == ((1, 5, 0, 0, 0), (0, 0, 1, 5, 0))
    assert cn.isotropic_frame(f13, 5, 0) == ()
    monkeypatch.setattr(PrimeField, "sqrt_minus_one", lambda self: 4)  # 16 = 3: not isotropic
    with pytest.raises(cn.ConstructionError, match="not orthogonal"):
        cn.isotropic_frame(f13, 4, 1)


def test_isotropic_frame_not_found():
    # x^2 + y^2 is anisotropic for p = 3 mod 4: F_7^2 holds no isotropic line
    with pytest.raises(ValueError, match="F_7\\^2 has no totally isotropic subspace of dimension 1"):
        cn.isotropic_frame(PrimeField(7), 2, 1)


def test_isotropic_frame_is_checked_exactly_at_a_large_prime():
    # p = 1 mod 4: e_2j + i e_2j+1 with i near p / 3, whose int64 Gram wraps
    p = 1000000000000000009
    frame = cn.isotropic_frame(PrimeField(p), 6, 3)
    assert len(frame) == 3
    assert all(oracle.dot(u, v, p) == 0 for u in frame for v in frame)


def test_isotropic_frame_witt_ceiling():
    with pytest.raises(ValueError, match="Witt index is 2"):
        cn.isotropic_frame(PrimeField(7), 4, 3)
    with pytest.raises(ValueError, match="Witt index is 2"):  # 6 = 2 mod 4 and p = 3 mod 4
        cn.isotropic_frame(PrimeField(7), 6, 3)
    assert len(cn.isotropic_frame(PrimeField(13), 6, 3)) == 3


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_isotropic_frame_reaches_the_witt_index(p):
    field = PrimeField(p)
    for m in range(1, 10):
        w = witt_index(p, m)
        frame = cn.isotropic_frame(field, m, w)
        assert len(frame) == w
        assert all(oracle.dot(u, v, p) == 0 for u in frame for v in frame)
        span = cn.span_points(field, frame, m)
        assert len(np.unique(span @ p ** np.arange(m, dtype=np.int64))) == p**w
        assert (w >= 1) == (m >= 3 or (m == 2 and field.sqrt_minus_one() is not None))
        with pytest.raises(ValueError, match=f"Witt index is {w}"):
            cn.isotropic_frame(field, m, w + 1)
        if p**m <= 2401:
            assert brute_witt_index(p, m) == w, (p, m)


LIFT_CASES = [
    ("even2mod4", 7, 6, 3),
    ("even2mod4", 5, 2, 4),
    ("even2mod4", 13, 6, 6),
    ("even0mod4", 13, 4, 3),
    ("even0mod4", 5, 8, 2),
    ("even0mod4", 17, 4, 16),
    ("odd3mod4", 11, 7, 5),
    ("odd3mod4", 3, 11, 2),
]


@pytest.mark.parametrize("kind, p, d, k", LIFT_CASES)
def test_lift_products_are_exactly_a_plus_a2(kind, p, d, k):
    # the builders no longer walk their pairs: this is the independent check
    field = PrimeField(p)
    E = cn.BUILDERS[kind](field, d, k)
    expect = {(c + c * c) % p for c in cn.mult_subgroup(field, k)}
    assert counting.product_set(E) == expect
    if len(E) <= 60:
        assert oracle_product(E) == expect


@pytest.mark.parametrize(
    "kind, p, d, k", [("even2mod4", 7, 6, 3), ("even0mod4", 5, 8, 2), ("odd3mod4", 11, 7, 5), ("odd3mod4", 3, 11, 2)]
)
def test_builders_ignore_the_seed(kind, p, d, k):
    sets = {cn.BUILDERS[kind](PrimeField(p), d, k, seed) for seed in range(6)}
    assert len(sets) == 1


def test_even_2mod4_example():
    f7 = PrimeField(7)
    E = cn.construct_even_2mod4(f7, 6, 3, seed=1)
    assert len(E) == 147
    assert on_paraboloid(E)
    assert counting.product_set(E) == {2, 6}  # {a + a^2 : a in {1, 2, 4}}


def test_even_2mod4_full_subgroup():
    f7 = PrimeField(7)
    E = cn.construct_even_2mod4(f7, 6, 6, seed=1)
    image = {(a + a * a) % 7 for a in range(1, 7)}
    assert counting.product_set(E) <= image
    assert len(E) == 6 * 49


def test_odd_3mod4_base_case():
    f7 = PrimeField(7)
    E = cn.construct_odd_3mod4(f7, 3, 3)
    assert E.points == ((0, 1, 1), (0, 2, 4), (0, 4, 2))
    assert counting.product_set(E) == {2, 6}
    full = cn.construct_odd_3mod4(f7, 3, 6)
    assert len(full) == 6
    assert counting.product_set(full) <= {(a + a * a) % 7 for a in range(1, 7)}


def test_odd_3mod4_dimension_seven():
    E = cn.construct_odd_3mod4(PrimeField(7), 7, 3, seed=2)
    assert len(E) == 3 * 49
    assert on_paraboloid(E)
    assert counting.product_set(E) <= {2, 6}


def test_odd_3mod4_preconditions():
    with pytest.raises(ValueError):
        cn.construct_odd_3mod4(PrimeField(13), 3, 3)  # p = 1 mod 4
    with pytest.raises(ValueError):
        cn.construct_odd_3mod4(PrimeField(7), 5, 3)  # d = 1 mod 4


@pytest.mark.parametrize(
    "build, p, d, residue",
    [(cn.construct_even_2mod4, 7, 3, "d = 2 mod 4"), (cn.construct_even_0mod4, 13, 6, "d = 0 mod 4")],
    ids=["even2mod4-d3", "even0mod4-d6"],
)
def test_even_lifts_refuse_the_other_dimensions(build, p, d, residue):
    with pytest.raises(ValueError, match=f"construction requires {residue}"):
        build(PrimeField(p), d, 3)


def test_even_0mod4_example():
    f13 = PrimeField(13)
    E = cn.construct_even_0mod4(f13, 4, 3, seed=0)
    assert len(E) == 3 * 13
    assert on_paraboloid(E)
    prods = counting.product_set(E)
    assert len(prods) <= 3
    A = cn.mult_subgroup(f13, 3)
    plus = {(c + c * c) % 13 for c in A}
    minus = {(c - c * c) % 13 for c in A}
    assert prods <= plus | minus
    rep = cn.construction_report("even0mod4", f13, E, k=3)
    assert rep["products_contained"]
    assert rep["products_in_a_plus_a2"] or rep["products_in_a_minus_a2"]


def test_report_products_contained_means_a_plus_a2():
    # over the order-3 subgroup {1, 3, 9} of F_13, {c + c^2} = {2, 12} and
    # {c - c^2} = {0, 6, 7}: the origin's one product, 0, is only in the latter
    f13 = PrimeField(13)
    E = PointSet.build(f13, 4, [(0, 0, 0, 0)])
    rep = cn.construction_report("even0mod4", f13, E, k=3)
    assert rep["products_in_a_minus_a2"] and not rep["products_contained"]


def test_even_0mod4_single_element_subgroup():
    E = cn.construct_even_0mod4(PrimeField(13), 4, 1, seed=0)
    assert len(counting.product_set(E)) == 1


def test_even_0mod4_rejects_3mod4():
    with pytest.raises(ValueError, match="1 mod 4"):
        cn.construct_even_0mod4(PrimeField(7), 4, 3)


def test_even_0mod4_postcondition_is_a_plus_a2(monkeypatch):
    # products stay in {c + c^2} because the frame is isotropic: a frame that
    # is not (4^2 = 3 in F_13) is refused where it is made, before any lift
    f13 = PrimeField(13)
    monkeypatch.setattr(PrimeField, "sqrt_minus_one", lambda self: 4)
    with pytest.raises(cn.ConstructionError, match="not orthogonal"):
        cn.construct_even_0mod4(f13, 4, 3)


def test_lift_checks_the_cap_before_the_subgroup(monkeypatch):
    def refuse(field, k):
        raise AssertionError("subgroup built before the cap was checked")

    monkeypatch.setattr(cn, "mult_subgroup", refuse)
    with pytest.raises(ResourceLimitError, match="exceeds cap 10"):
        cn.construct_odd_3mod4(PrimeField(7), 7, 3, cap=10)  # 3 * 7^2 = 147 points


def test_lift_reaches_a_million_points():
    start = time.perf_counter()
    E = cn.construct_even_2mod4(PrimeField(101), 6, 100)
    assert time.perf_counter() - start < 20
    assert len(E) == 100 * 101**2 == 1_020_100
    assert on_paraboloid(E)


def test_lines_set_counts():
    f13 = PrimeField(13)
    E = cn.isotropic_lines_set(f13, 2, 3, seed=1)
    assert len(E) == 6
    tri = counting.profile(E)
    assert tri.t_zero_triples >= 2 * 27
    assert tri.t_zero_triples > len(E) ** 3 / 13
    rep = cn.construction_report("lines", f13, E, num_lines=2, points_per_line=3)
    assert rep["floor_ok"] and rep["zero_triple_floor"] == 54


def test_lines_single_point():
    E = cn.isotropic_lines_set(PrimeField(13), 1, 1, seed=0)
    assert len(E) == 1
    assert counting.profile(E).t_zero_triples == 1


def test_lines_preconditions_and_determinism():
    with pytest.raises(ValueError):
        cn.isotropic_lines_set(PrimeField(7), 2, 3)  # needs i
    with pytest.raises(ValueError):
        cn.isotropic_lines_set(PrimeField(13), 2, 14)  # more points than the line holds
    f13 = PrimeField(13)
    assert cn.isotropic_lines_set(f13, 3, 4, seed=9) == cn.isotropic_lines_set(f13, 3, 4, seed=9)


def test_span_points():
    f = PrimeField(5)
    pts = cn.span_points(f, [(1, 0, 0), (0, 1, 1)], 3)
    assert pts.dtype == np.int64 and pts.shape == (25, 3)
    # row 5 a + b is a (1, 0, 0) + b (0, 1, 1): lexicographic in (a, b)
    assert pts.tolist() == [[a, b, b] for a in range(5) for b in range(5)]
    empty = cn.span_points(f, [], 3)
    assert empty.dtype == np.int64 and empty.tolist() == [[0, 0, 0]]
