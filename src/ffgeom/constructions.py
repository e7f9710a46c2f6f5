"""Extremal point-set constructions on paraboloids: multiplicative-subgroup
families whose dot products collapse to the image of a + a^2, built over
totally isotropic frames, plus the isotropic-slope lines obstruction set.

The frame is written down, not searched for: (p, m) decides a maximal
totally isotropic subspace of F_p^m up to isometry (Witt's extension
theorem), so every dot product and count of a lift is the same whichever
frame spans it, and `isotropic_frame` returns one fixed frame.

Each guarantee is checked once, where it is made; a violated one raises.
`mult_subgroup` checks for k distinct roots of x^k - 1, hence exactly the
subgroup A of order k; `isotropic_frame` checks that its vectors are
isotropic and mutually orthogonal; the paraboloid constructions check, in
O(|E|), the emitted set's size (which a dependent frame would fall short
of) and its paraboloid membership. Those facts make every product of a
lift ab + (ab)^2 with ab in A, so no lift re-walks its |E|^2 pairs;
`isotropic_lines_set` checks that no two lines' points overlap.
`construction_report` records the facts for the sidecar without raising,
and its own `product_set(E)` is the one independent products check.
"""

from __future__ import annotations

import random

import numpy as np

from .counting import product_set, profile
from .field import PrimeField, prime_factors
from .varieties import PointSet, _check_cap, _check_power_cap, _space, enum_sphere, on_paraboloid


class ConstructionError(RuntimeError):
    """A construction's postcondition failed verification."""


# -- subgroups and isotropic frames ---------------------------------------


def mult_subgroup(field: PrimeField, k: int) -> tuple[int, ...]:
    """The unique multiplicative subgroup of order k (k must divide p-1), as
    the sorted tuple of its elements. It is generated by h = g^((p-1)/k) for
    the first g = 2, 3, ... with h^(k/q) = g^((p-1)/q) != 1 for every prime
    q | k, which gives h order exactly k: only k is factored, never p - 1."""
    p = field.p
    if k < 1 or (p - 1) % k != 0:
        raise ValueError(f"subgroup order {k} does not divide p-1 = {p - 1}")
    qs = prime_factors(k)
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in qs):
        g += 1
    base = pow(g, (p - 1) // k, p)
    elements = [pow(base, i, p) for i in range(k)]
    if len(set(elements)) != k:
        raise ConstructionError("subgroup has wrong size")
    if any(pow(a, k, p) != 1 for a in elements):
        raise ConstructionError("element order does not divide k")
    return tuple(sorted(elements))


def isotropic_frame(field: PrimeField, ambient_dim: int, count: int) -> tuple[tuple[int, ...], ...]:
    """The first count vectors of one fixed frame of independent, isotropic,
    mutually orthogonal vectors of F_p^ambient_dim. For p = 1 mod 4 it is
    e_2j + i e_2j+1 with i^2 = -1. Otherwise, with a^2 + b^2 = -1, each block
    of four coordinates holds (a, b, 1, 0) and (b, -a, 0, 1), and three
    leftover coordinates hold (a, b, 1). The frame reaches the Witt index of
    F_p^m, m = ambient_dim: m//2, less one when p = 3 mod 4 and m = 2 mod 4.
    A larger count asks for a subspace that does not exist."""
    p, m = field.p, ambient_dim
    i = field.sqrt_minus_one()
    if i is not None:
        blocks = [(j, (1, i)) for j in range(0, m - 1, 2)]
    else:
        a, b = (int(c) for c in enum_sphere(field, 2, p - 1).array[0])
        blocks = [(j, v) for j in range(0, m - 3, 4) for v in ((a, b, 1, 0), (b, -a % p, 0, 1))]
        if m % 4 == 3:
            blocks.append((m - 3, (a, b, 1)))
    if count > len(blocks):
        raise ValueError(
            f"F_{p}^{m} has no totally isotropic subspace of dimension {count}: "
            f"its Witt index is {len(blocks)}"
        )
    vectors = []
    for j, block in blocks[:count]:
        v = [0] * m
        v[j : j + len(block)] = block
        vectors.append(tuple(v))
    frame = np.array(vectors, dtype=object).reshape(count, m)  # Python ints: no int64 wrap
    bad = np.argwhere(frame @ frame.T % p != 0)
    if len(bad):
        u, v = bad[0]
        raise ConstructionError(f"frame vectors {vectors[u]} and {vectors[v]} not orthogonal")
    return tuple(vectors)


def span_points(field: PrimeField, vectors, dim: int) -> np.ndarray:
    """All p^m linear combinations of the m given (independent) vectors, as a
    (p^m, dim) int64 array whose rows follow the coefficient tuples in
    lexicographic order."""
    basis = np.array(vectors, dtype=np.int64).reshape(len(vectors), dim)
    return _space(field.p, len(basis)) @ basis % field.p


# -- the constructions -----------------------------------------------------


def _isotropic_lift(field: PrimeField, d: int, k: int, cap: int | None, span_dim: int, label: str) -> PointSet:
    """E = {(s, 0...0, a, a^2) : s in the span of a maximal isotropic frame of
    F_p^span_dim, a in A}. Every product is ab + (ab)^2, since s.s' = 0: with
    the frame and A checked where they are made, the k p^m distinct rows
    that the size check counts are all the lift needs."""
    p = field.p
    m = span_dim // 2
    _check_power_cap(k, p, m, cap, "lifted span points")  # before the subgroup, the frame and the k p^m points
    A = mult_subgroup(field, k)
    frame = isotropic_frame(field, span_dim, m) if m else ()  # m = 0: no circle lookup
    S = span_points(field, frame, span_dim)
    rows = np.zeros((len(S), k, d), dtype=np.int64)  # rows[i, j] = (S[i], 0...0, a_j, a_j^2)
    rows[:, :, :span_dim] = S[:, None]
    rows[:, :, -2:] = [(a, a * a % p) for a in A]  # a^2 in Python ints: no int64 wrap
    E = PointSet.build(field, d, rows.reshape(-1, d))
    if len(E) != k * p**m:
        raise ConstructionError(f"{label}: size {len(E)} != expected {k * p**m}")
    if not on_paraboloid(E):
        raise ConstructionError(f"{label}: a point misses the paraboloid")
    return E


def construct_even_2mod4(field: PrimeField, d: int, k: int, seed: int = 0, cap: int | None = None) -> PointSet:
    """E = (totally isotropic subspace of F_p^(d-2)) x {(a, a^2) : a in A}
    for d = 2 mod 4; dot products land in {a + a^2 : a in A}. A lift makes no
    random choice: seed only keeps the BUILDERS call shape."""
    if d % 4 != 2 or d < 2:
        raise ValueError("construction requires d = 2 mod 4")
    return _isotropic_lift(field, d, k, cap, d - 2, "even_2mod4")


def construct_odd_3mod4(field: PrimeField, d: int, k: int, seed: int = 0, cap: int | None = None) -> PointSet:
    """Odd-dimension variant, d = 3 mod 4: pad the isotropic subspace of
    F_p^(d-3) with a zero coordinate; at d = 3 this is {(0, a, a^2)}. A lift
    makes no random choice: seed only keeps the BUILDERS call shape."""
    if field.p % 4 != 3:
        raise ValueError("construction requires p = 3 mod 4")
    if d % 4 != 3 or d < 3:
        raise ValueError("construction requires d = 3 mod 4")
    return _isotropic_lift(field, d, k, cap, d - 3, "odd_3mod4")


def construct_even_0mod4(field: PrimeField, d: int, k: int, seed: int = 0, cap: int | None = None) -> PointSet:
    """d = 0 mod 4 variant: F_p^(d-2) holds an isotropic subspace of dimension
    d/2 - 1 only when -1 is a square, hence p = 1 mod 4. As for d = 2 mod 4 the
    products are c + c^2; construction_report records which of c +- c^2 hold.
    A lift makes no random choice: seed only keeps the BUILDERS call shape."""
    if field.p % 4 != 1:
        raise ValueError(
            "construction requires p = 1 mod 4: an isotropic subspace of F_p^(d-2) of "
            "dimension d/2 - 1 needs -1 to be a square"
        )
    if d % 4 != 0 or d < 4:
        raise ValueError("construction requires d = 0 mod 4")
    return _isotropic_lift(field, d, k, cap, d - 2, "even_0mod4")


BUILDERS = {
    "even2mod4": construct_even_2mod4,
    "even0mod4": construct_even_0mod4,
    "odd3mod4": construct_odd_3mod4,
}


def isotropic_lines_set(
    field: PrimeField, num_lines: int, points_per_line: int, seed: int = 0, cap: int | None = None
) -> PointSet:
    """Union of num_lines parallel lines in F_p^2 with isotropic direction
    (1, i), points_per_line points each, distinct offsets. Every within-line
    triple has all sides of norm zero, so the set carries at least
    num_lines * points_per_line^3 fully degenerate triples."""
    p = field.p
    if p % 4 != 1:
        raise ValueError("lines of slope i require p = 1 mod 4")
    if num_lines < 1 or points_per_line < 1:
        raise ValueError("need at least one line and one point per line")
    if points_per_line > p or num_lines > p:
        raise ValueError("at most p points per line and p distinct offsets")
    _check_cap(num_lines * points_per_line, cap, "line points")
    i = field.sqrt_minus_one()
    rng = random.Random(seed)
    offsets = sorted(rng.sample(range(p), num_lines))
    xs = np.array([sorted(rng.sample(range(p), points_per_line)) for _ in offsets])
    ys = (i * xs + np.array(offsets)[:, None]) % p  # row c: the line y = i x + c
    E = PointSet.build(field, 2, np.column_stack([xs.ravel(), ys.ravel()]))
    if len(E) != num_lines * points_per_line:
        raise ConstructionError("lines construction produced overlapping points")
    return E


def construction_report(
    kind: str,
    field: PrimeField,
    E: PointSet,
    k: int | None = None,
    num_lines: int | None = None,
    points_per_line: int | None = None,
) -> dict:
    """Verification sidecar: sizes, membership and product containment. For
    the subgroup builders products_contained is containment in {c + c^2 : c
    in A}, which every builder guarantees; products_in_a_minus_a2 records
    whether {c - c^2} holds them too."""
    prods = product_set(E)
    report: dict = {
        "kind": kind,
        "p": field.p,
        "d": E.dim,
        "size": len(E),
        "prod_size": len(prods),
    }
    if kind in BUILDERS:
        A = mult_subgroup(field, k)
        plus, minus = {(a + a * a) % field.p for a in A}, {(a - a * a) % field.p for a in A}
        report["k"] = k
        report["on_paraboloid"] = on_paraboloid(E)
        report["products_in_a_plus_a2"] = prods <= plus
        report["products_in_a_minus_a2"] = prods <= minus
        report["products_contained"] = prods <= plus
    elif kind == "lines":
        floor = num_lines * points_per_line**3
        report["num_lines"] = num_lines
        report["points_per_line"] = points_per_line
        report["zero_triples"] = profile(E).t_zero_triples
        report["zero_triple_floor"] = floor
        report["floor_ok"] = report["zero_triples"] >= floor
    report["products"] = sorted(prods) if len(prods) <= 64 else None
    return report
