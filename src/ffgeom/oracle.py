"""Naive recomputation of every count and transform, straight from the
definitions, used as ground truth in tests.

Everything here is deliberately dumb: nested Python loops over the defining
predicates, no histogram algebra, no numpy. Points are tuples of Python
ints, so no sum wraps at any p; `dot`, `norm` and the paraboloid check are
this module's own, and the library keeps no copy of them. The only shared
code is the field module and the PointSet that carries the points. Size caps
keep the loops honest about their cost.
"""

from __future__ import annotations

import cmath
import itertools
import time
from dataclasses import dataclass

from .field import PrimeField
from .varieties import PointSet

CAP_TRIPLE = 60
CAP_QUAD = 30
CAP_FOURIER_WORK = 2_000_000


class OracleCapError(ValueError):
    pass


def _cap(E: PointSet, limit: int, what: str) -> None:
    if len(E) > limit:
        raise OracleCapError(f"{what} oracle capped at {limit} points, got {len(E)}")


def dot(u: tuple[int, ...], v: tuple[int, ...], p: int) -> int:
    """u_1 v_1 + ... + u_n v_n mod p; vectors of unequal length raise ValueError."""
    return sum(a * b for a, b in zip(u, v, strict=True)) % p


def norm(v: tuple[int, ...], p: int) -> int:
    """The quantity v_1^2 + ... + v_n^2 mod p (not a metric)."""
    return sum(a * a for a in v) % p


def _dist(u, v, p):
    return norm([a - b for a, b in zip(u, v)], p)


def apex(field: PrimeField, x: tuple[int, ...]) -> tuple[int, ...]:
    """Map a paraboloid point to -xbar / (2 ||xbar||) one dimension down."""
    p, xbar = field.p, x[:-1]
    nb = norm(xbar, p)
    if nb == 0:
        raise ValueError("apex undefined: base norm is zero")
    scale = -pow(2 * nb, -1, p)
    return tuple(c * scale % p for c in xbar)


def reduction_equiv(
    field: PrimeField,
    x: tuple[int, ...],
    y: tuple[int, ...],
    z: tuple[int, ...],
) -> tuple[bool, bool]:
    """Evaluate both sides of the dot-product-to-distance reduction.

    Returns (x.y == x.z, ||a - ybar|| == ||a - zbar||) where a is the apex
    of x; the two booleans agree for every triple on a paraboloid.
    """
    p, a = field.p, apex(field, x)
    return dot(x, y, p) == dot(x, z, p), _dist(a, y[:-1], p) == _dist(a, z[:-1], p)


def oracle_product(E: PointSet, F: PointSet | None = None) -> set[int]:
    F = E if F is None else F
    p = E.field.p
    return {dot(x, y, p) for x in E.points for y in F.points}


def oracle_M(E: PointSet) -> int:
    _cap(E, CAP_QUAD, "quadruple")
    p = E.field.p
    pts = E.points
    # w.z for every (w, z), row w, computed once rather than once per (x, y)
    wz = [[dot(w, z, p) for z in pts] for w in pts]
    count = 0
    for x in pts:
        for y in pts:
            t = dot(x, y, p)
            for w_row in wz:
                for s in w_row:
                    if s == t:
                        count += 1
    return count


def oracle_D(E: PointSet) -> int:
    _cap(E, CAP_TRIPLE, "triple")
    p = E.field.p
    pts = E.points
    # x.y for every (x, y), row x, computed once rather than once per z
    xy = [[dot(x, y, p) for y in pts] for x in pts]
    count = 0
    for x_row in xy:
        for t in x_row:
            for s in x_row:
                if s == t:
                    count += 1
    return count


def oracle_D_star(E: PointSet, allow_ambient_base: bool = False) -> int:
    _cap(E, CAP_TRIPLE, "triple")
    p = E.field.p
    pts = E.points
    if all(pt[-1] == norm(pt[:-1], p) for pt in pts):
        base = [pt[:-1] for pt in pts]
    elif allow_ambient_base:
        base = list(pts)
    else:
        raise ValueError("oracle_D_star requires a paraboloid set")
    # x.y and the base distance ||ybar - zbar||, each computed once
    xy = [[dot(x, y, p) for y in pts] for x in pts]
    yz = [[_dist(y, z, p) for z in base] for y in base]
    count = 0
    for x_row in xy:
        for t, y_row in zip(x_row, yz):
            for s, base_dist in zip(x_row, y_row):
                if s == t and base_dist != 0:
                    count += 1
    return count


def oracle_triangles(X: PointSet) -> dict[str, int]:
    """Triple loop over the triangle taxonomy; its keys, in order, are counting.TRIANGLE_KEYS."""
    _cap(X, CAP_TRIPLE, "triple")
    p = X.field.p
    pts = X.points
    out = {
        "t_nde": 0,
        "t_de": 0,
        "t_star": 0,
        "degenerate_pairs": 0,
        "t_nde_raw": 0,
        "t_zero_triples": 0,
        "isosceles_total": 0,
    }
    # ||x - y|| for every (x, y), row x, computed once rather than once per triple
    dist = [[_dist(x, y, p) for y in pts] for x in pts]
    for x_row in dist:
        for s in x_row:
            if s == 0:
                out["degenerate_pairs"] += 1
    for x_row in dist:
        for s, y_row in zip(x_row, dist):
            for side, base in zip(x_row, y_row):
                if side != s:
                    continue
                out["isosceles_total"] += 1
                if s != 0:
                    out["t_nde_raw"] += 1
                if base != 0:
                    out["t_star"] += 1
                if s == 0 or base == 0:
                    out["t_de"] += 1
                else:
                    out["t_nde"] += 1
                if s == 0 and base == 0:
                    out["t_zero_triples"] += 1
    return out


def oracle_degenerate_pairs(X: PointSet) -> int:
    p = X.field.p
    return sum(1 for x in X.points for y in X.points if _dist(x, y, p) == 0)


def oracle_fourier(X: PointSet) -> dict[tuple[int, ...], complex]:
    """Normalized transform p^(-n) * sum_x chi(-m.x), one entry per frequency."""
    p, n = X.field.p, X.dim
    if p**n * max(len(X), 1) > CAP_FOURIER_WORK:
        raise OracleCapError("fourier oracle work cap exceeded")
    scale = float(p) ** (-n)
    out = {}
    for m in itertools.product(range(p), repeat=n):
        acc = 0j
        for x in X.points:
            acc += cmath.exp(-2j * cmath.pi * (dot(m, x, p)) / p)
        out[m] = acc * scale
    return out


@dataclass(frozen=True)
class OracleReport:
    name: str
    fast_value: object
    oracle_value: object
    match: bool
    fast_ms: float
    oracle_ms: float

    def line(self) -> str:
        tag = "OK  " if self.match else "FAIL"

        def short(v):
            s = repr(v)
            return s if len(s) <= 48 else s[:45] + "..."

        return (
            f"{tag} {self.name:<28} fast={short(self.fast_value):<48} "
            f"oracle={short(self.oracle_value):<48} "
            f"({self.fast_ms:.1f}ms vs {self.oracle_ms:.1f}ms)"
        )


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    val = fn(*args, **kwargs)
    return val, (time.perf_counter() - t0) * 1e3


def _values_match(fast, slow, tol: float = 1e-6) -> bool:
    if isinstance(fast, int) and isinstance(slow, int):
        return fast == slow
    if isinstance(fast, (set, frozenset)):
        return fast == slow
    if isinstance(fast, dict):
        return set(fast) == set(slow) and all(_values_match(fast[k], slow[k], tol) for k in fast)
    fa, sa = complex(fast), complex(slow)
    scale = max(abs(fa), abs(sa), 1.0)
    return abs(fa - sa) <= tol * scale


def run_battery(seed: int = 0, instances: int = 20, cap: int | None = None) -> list[OracleReport]:
    """Cross-validate every fast count against its oracle on random sets;
    the cap bounds the instances, each of at most 40 points."""
    import random

    from . import counting, fourier
    from .field import PrimeField
    from .varieties import _check_cap, enum_paraboloid, random_subset

    if instances < 1:
        raise ValueError("instances must be >= 1")
    _check_cap(instances, cap, "oracle instances")

    rng = random.Random(seed)
    reports: list[OracleReport] = []

    def add(name, fast_fn, oracle_fn):
        fast, fms = _timed(fast_fn)
        slow, oms = _timed(oracle_fn)
        reports.append(OracleReport(name, fast, slow, _values_match(fast, slow), fms, oms))

    for k in range(instances):
        p = rng.choice([7, 11, 13])
        fld = PrimeField(p)
        P = enum_paraboloid(fld, 3)
        E = random_subset(P, rng.randint(2, min(40, len(P))), seed=rng.randrange(2**32))
        Esmall = random_subset(E, min(len(E), rng.randint(2, 18)), seed=rng.randrange(2**32))
        X = random_subset(P, rng.randint(2, 40), seed=rng.randrange(2**32))
        X2 = PointSet.build(fld, 2, [pt[:2] for pt in X.points])

        add(f"[{k}] product_set", lambda: counting.product_set(E), lambda: oracle_product(E))
        add(f"[{k}] profile.D", lambda: counting.profile(E).D, lambda: oracle_D(E))
        add(f"[{k}] profile.D_star", lambda: counting.profile(E).D_star, lambda: oracle_D_star(E))
        add(f"[{k}] count_M", lambda: counting.count_M(Esmall), lambda: oracle_M(Esmall))
        add(
            f"[{k}] profile.triangles",
            lambda: {k: getattr(counting.profile(X2), k) for k in counting.TRIANGLE_KEYS},
            lambda: oracle_triangles(X2),
        )
        if p**2 * len(X2) <= CAP_FOURIER_WORK // 4:
            add(
                f"[{k}] fourier_indicator",
                lambda: {
                    m: complex(v)
                    for m, v in zip(
                        itertools.product(range(p), repeat=2), fourier.fourier_indicator(X2).values.flat
                    )
                },
                lambda: oracle_fourier(X2),
            )
    return reports
