import ast
import cmath
import importlib
import itertools
import pkgutil
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ffgeom
from ffgeom import counting, fourier, oracle
from ffgeom.field import PrimeField
from ffgeom.varieties import (
    PointSet,
    ResourceLimitError,
    enum_paraboloid,
    enum_sphere,
    random_space_subset,
    random_subset,
)


def space(p, n):
    return PointSet.build(PrimeField(p), n, itertools.product(range(p), repeat=n))


def chi(a, p):
    """The additive character exp(2 pi i a / p)."""
    return cmath.exp(2j * cmath.pi * a / p)


def rand_plane_subset(p, size, seed):
    return random_space_subset(PrimeField(p), 2, size, seed)


def delta(S, index):
    vals = np.zeros(len(S), dtype=np.complex128)
    vals[index] = 1.0
    return fourier.SurfaceFunction(S, vals)


def test_origin_indicator_table():
    f = PrimeField(3)
    X = PointSet.build(f, 2, [(0, 0)])
    t = fourier.fourier_indicator(X)
    assert np.allclose(t.values.flat, 1 / 9)
    assert fourier.plancherel_error(t, X) < 1e-12  # 9 * (1/81) = 1/9


def test_plancherel_random_sets():
    rng = random.Random(3)
    for p, n in [(7, 2), (11, 2), (23, 2), (5, 3)]:
        full = space(p, n)
        X = random_subset(full, rng.randint(1, min(40, len(full))), rng.randrange(2**32))
        assert fourier.plancherel_error(fourier.fourier_indicator(X), X) < 1e-9


def test_inversion_recovers_indicator():
    # 1_X(x) = sum_m Xhat(m) chi(m.x) = p^n ifftn(Xhat)(x), at every x
    X = rand_plane_subset(7, 10, seed=12)
    t = fourier.fourier_indicator(X)
    indicator = np.zeros((7, 7))
    indicator[tuple(X.array.T)] = 1.0
    assert np.abs(np.fft.ifftn(t.values) * 7**2 - indicator).max() < 1e-9


def test_indicator_sign_and_scale_against_definition():
    # an asymmetric set: Xhat(-m) = conj(Xhat(m)) differs from Xhat(m)
    p = 101
    f = PrimeField(p)
    X = rand_plane_subset(p, 3000, seed=8)
    t = fourier.fourier_indicator(X)
    rng = random.Random(9)
    asymmetric = False
    for _ in range(16):
        m = (rng.randrange(p), rng.randrange(p))
        literal = sum(chi(-oracle.dot(m, x, p), p) for x in X.points) / p**2
        assert abs(t.values[m] - literal) < 1e-9
        asymmetric |= abs(t.values[m] - t.values[-m[0], -m[1]]) > 1e-6
    assert asymmetric


def test_fourier_matches_oracle():
    X = rand_plane_subset(5, 9, seed=2)
    t = fourier.fourier_indicator(X)
    for m, val in oracle.oracle_fourier(X).items():
        assert abs(t.values[m] - val) < 1e-9


def test_zero_sphere_values_small():
    # the closed form at p = 3, n = 2, and the enumerated sphere's transform
    for table in (fourier.zero_sphere_hat_table(PrimeField(3), 2), enumerated_zero_sphere_hat(3, 2)):
        assert table[0] == pytest.approx(1 / 9)  # m = (0, 0)
        # nonzero-norm frequency m = (1, 0): -(1/9) * (-1)
        assert table[3] == pytest.approx(1 / 9)


@pytest.mark.parametrize("n,p", [(2, 3), (2, 7), (2, 11), (6, 3)])
def test_zero_sphere_formula_equals_enumeration(n, p):
    assert fourier.zero_sphere_max_error(PrimeField(p), n) < 1e-12


def enumerated_zero_sphere_hat(p, n):
    """p^(-n) sum over the zero sphere of chi(m.y) at every m, as a flat table."""
    grid = np.zeros((p,) * n)
    grid[tuple(enum_sphere(PrimeField(p), n, 0).array.T)] = 1.0
    return np.fft.ifftn(grid).reshape(-1)


@pytest.mark.parametrize("n,p", [(2, 7), (2, 43), (6, 3), (6, 7)])
def test_zero_sphere_error_is_the_table_gap(n, p):
    # the in-place per-class gap equals the gap of the two dense tables
    f = PrimeField(p)
    gap = enumerated_zero_sphere_hat(p, n) - fourier.zero_sphere_hat_table(f, n)
    assert fourier.zero_sphere_max_error(f, n) == float(np.abs(gap).max())


@pytest.mark.parametrize("n,p", [(2, 5), (2, 13), (3, 7), (3, 5), (4, 3), (4, 5)])
def test_zero_sphere_table_outside_the_closed_form(n, p):
    # p = 1 mod 4 or n != 2 mod 4: the table is the enumerated sphere's transform
    table = fourier.zero_sphere_hat_table(PrimeField(p), n)
    assert np.abs(table - enumerated_zero_sphere_hat(p, n)).max() < 1e-12
    m = (1,) + (2,) * (n - 1)
    direct = sum(chi(oracle.dot(m, y, p), p) for y in enum_sphere(PrimeField(p), n, 0)) / p**n
    assert abs(table[np.ravel_multi_index(m, (p,) * n)] - direct) < 1e-12


def test_zero_sphere_formula_hypotheses():
    with pytest.raises(ValueError):
        fourier.zero_sphere_max_error(PrimeField(13), 2)  # p = 1 mod 4
    with pytest.raises(ValueError):
        fourier.zero_sphere_max_error(PrimeField(7), 3)  # n odd
    # the enumerated table has no hypotheses
    fourier.zero_sphere_hat_table(PrimeField(13), 2)


def test_surface_transform_constants():
    f = PrimeField(7)
    S = enum_sphere(f, 2, 1)
    ones = fourier.SurfaceFunction(S, np.ones(len(S), dtype=complex))
    table = fourier.inverse_surface_transform(ones)
    assert table[0, 0] == pytest.approx(1.0)
    pm = delta(S, 2)
    tp = fourier.inverse_surface_transform(pm)
    assert np.allclose(np.abs(tp), 1 / len(S))
    # the zero sphere at p = 3 is the origin alone: transform is identically 1
    f3 = PrimeField(3)
    S0 = enum_sphere(f3, 2, 0)
    t0 = fourier.inverse_surface_transform(fourier.SurfaceFunction(S0, np.ones(len(S0), dtype=complex)))
    assert np.allclose(t0, 1.0)


def test_surface_transform_sign_and_scale_against_definition():
    p = 31
    f = PrimeField(p)
    V = enum_sphere(f, 2, 5)
    rng = np.random.default_rng(11)
    vals = rng.standard_normal(len(V)) + 1j * rng.standard_normal(len(V))
    table = fourier.inverse_surface_transform(fourier.SurfaceFunction(V, vals))
    asymmetric = False
    for _ in range(16):
        c = tuple(int(v) for v in rng.integers(0, p, 2))
        literal = sum(chi(oracle.dot(c, x, p), p) * v for x, v in zip(V.points, vals)) / len(V)
        assert abs(table[c] - literal) < 1e-9
        asymmetric |= abs(table[c] - table[-c[0], -c[1]]) > 1e-6
    assert asymmetric


def test_extension_ratio_delta_closed_form():
    f = PrimeField(3)
    S = enum_sphere(f, 2, 1)
    pm = delta(S, 0)
    assert fourier.extension_ratio(pm, 4.0) == pytest.approx((3 / 4) ** 0.5)


def test_extension_ratio_against_direct_norms():
    f = PrimeField(3)
    S = enum_sphere(f, 2, 1)
    ones = fourier.SurfaceFunction(S, np.ones(len(S), dtype=complex))
    ratio = fourier.extension_ratio(ones, 4.0)
    # direct norm computation, no library reuse
    num = 0.0
    for c0 in range(3):
        for c1 in range(3):
            acc = sum(chi(c0 * x + c1 * y, 3) for x, y in S.points) / len(S)
            num += abs(acc) ** 4
    expect = num**0.25 / (sum(1.0 for _ in S.points) / len(S)) ** 0.5
    assert ratio == pytest.approx(expect, abs=1e-9)


def test_extension_ratio_decreases_to_the_max():
    """On one fixed f the L^r norm of (f dsigma)^vee does not increase with
    r and tends to max |g|: scaled by the max, the sum of |g|^r neither
    underflows to 0 at large r nor overflows."""
    S = enum_sphere(PrimeField(23), 2, 1)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(len(S)) + 1j * rng.standard_normal(len(S))
    f = fourier.SurfaceFunction(S, vals)
    ratios = [fourier.extension_ratio(f, r) for r in (1, 2, 4, 10, 100, 1000, 2000, 1e5, 1e308)]
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))
    top = np.abs(fourier.inverse_surface_transform(f)).max()
    assert ratios[-1] == pytest.approx(top / np.mean(np.abs(vals) ** 2) ** 0.5, rel=1e-12)


def test_extension_ratio_scale_invariant_and_zero_rejected():
    f = PrimeField(7)
    S = enum_sphere(f, 2, 3)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(len(S)) + 1j * rng.standard_normal(len(S))
    g = fourier.SurfaceFunction(S, vals)
    scaled = fourier.SurfaceFunction(S, vals * (2.5 - 1.25j))
    assert fourier.extension_ratio(g, 4.0) == pytest.approx(
        fourier.extension_ratio(scaled, 4.0)
    )
    with pytest.raises(ValueError):
        fourier.extension_ratio(fourier.SurfaceFunction(S, np.zeros(len(S), dtype=complex)), 4.0)


def transform_l4_ratio(f):
    """The r = 4 extension ratio from the dense surface transform, as the
    transform route computes it: (sum_c |ext(c)|^4)^(1/4) / ||f||_L2(sigma)."""
    ext = fourier.inverse_surface_transform(f)
    num = float((np.abs(ext) ** 4).sum()) ** 0.25
    return num / (float((np.abs(f.values) ** 2).sum()) / len(f.variety)) ** 0.5


def gaussian_function(V, seed):
    rng = np.random.default_rng(seed)
    return fourier.SurfaceFunction(V, rng.standard_normal(len(V)) + 1j * rng.standard_normal(len(V)))


def energy_route_runs(V):
    """Whether r = 4 takes the antipodal energy: V lies on one sphere of
    nonzero radius in dimension n <= 2."""
    return fourier._antipodes(V) is not None


def assert_identity(monkeypatch, f):
    """extension_ratio(f, 4) equals the transform's L^4 ratio to 1e-12
    relative, and takes the transform only off the energy route."""
    expect = transform_l4_ratio(f)
    calls = []
    surface = fourier.inverse_surface_transform
    monkeypatch.setattr(fourier, "inverse_surface_transform", lambda *a: calls.append(1) or surface(*a))
    got = fourier.extension_ratio(f, 4.0)
    monkeypatch.undo()
    assert got == pytest.approx(expect, rel=1e-12)
    assert len(calls) == (0 if energy_route_runs(f.variety) else 1)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [3, 5, 7, 13])  # p = 3 and 1 mod 4
@pytest.mark.parametrize("radius", [0, 2])
def test_extension_l4_identity_on_spheres(monkeypatch, n, p, radius):
    V = enum_sphere(PrimeField(p), n, radius)
    if not len(V):  # 2 is a nonsquare mod 3, 5 and 13: an empty 1-sphere
        assert n == 1
        return
    assert_identity(monkeypatch, gaussian_function(V, seed=p * n + radius))


def test_extension_l4_identity_on_a_paraboloid(monkeypatch):
    V = enum_paraboloid(PrimeField(11), 2)  # y = x^2: no sphere, the transform
    assert not energy_route_runs(V)
    assert_identity(monkeypatch, gaussian_function(V, seed=1))


@pytest.mark.parametrize("size", [10, 14, 15, 40, 121])
def test_extension_l4_identity_on_both_sides_of_the_route_bound(monkeypatch, size):
    # the circle ||x|| = 1 of F_11^2 has p + 1 = 12 points, the most a sphere
    # of nonzero radius in n <= 2 holds: size 10 is part of it and takes the
    # antipodal energy; 14, 15, 40 and all of F_11^2 hold the whole circle and
    # points off it, and take the transform
    circle = enum_sphere(PrimeField(11), 2, 1)
    if size <= 12:
        V = random_subset(circle, size, seed=size)
    else:
        F = space(11, 2).array
        off = PointSet.build(circle.field, 2, F[(F * F).sum(axis=1) % 11 != 1])
        V = circle.union(random_subset(off, size - 12, seed=size))
    assert len(V) == size and energy_route_runs(V) == (size <= 12)
    assert_identity(monkeypatch, gaussian_function(V, seed=size))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([3, 5, 7]),
    st.integers(1, 3),
    st.data(),
)
def test_extension_l4_identity_property(p, n, data):
    idx = data.draw(st.sets(st.integers(0, p**n - 1), min_size=1, max_size=min(p**n, 30)))
    part = st.floats(-10, 10, allow_nan=False, allow_subnormal=False)
    vals = data.draw(st.lists(st.tuples(part, part), min_size=len(idx), max_size=len(idx)))
    vals = np.array([complex(a, b) for a, b in vals])
    if not np.abs(vals).max() > 1e-3:
        return
    V = PointSet.build(PrimeField(p), n, np.array(np.unravel_index(sorted(idx), (p,) * n)).T)
    f = fourier.SurfaceFunction(V, vals)
    assert fourier.extension_ratio(f, 4.0) == pytest.approx(transform_l4_ratio(f), rel=1e-12)


def test_extension_ratio_cap_and_empty_variety_on_both_routes():
    S = enum_sphere(PrimeField(7), 2, 1)  # a circle: the antipodal route
    for r_exp in (4.0, 3.0):
        with pytest.raises(ResourceLimitError, match="transform-table entries: 49"):
            fourier.extension_ratio(fourier.SurfaceFunction(S, np.ones(len(S), dtype=complex)), r_exp, cap=48)
    empty = PointSet.build(PrimeField(7), 2, [])
    with pytest.raises(ValueError, match="empty variety"):
        fourier.extension_ratio(fourier.SurfaceFunction(empty, np.zeros(0)), 4.0)
    with pytest.raises(ValueError, match="empty variety"):
        fourier.inverse_surface_transform(fourier.SurfaceFunction(empty, np.zeros(0)))
    with pytest.raises(ValueError, match="one value per variety point"):
        fourier.SurfaceFunction(S, np.ones(len(S) - 1))


# p = 3, 7, 23 are 3 mod 4 and 5, 13, 17 are 1 mod 4: circles of p + 1 and
# p - 1 points, without and with isotropic directions
ANTIPODAL_PRIMES = [3, 5, 7, 13, 17, 23]


def nonzero_spheres(p, n):
    """Every nonempty sphere of nonzero radius in F_p^n."""
    spheres = (enum_sphere(PrimeField(p), n, radius) for radius in range(1, p))
    return [V for V in spheres if len(V)]


def pair_sum_energy_in_one_block(f):
    """The additive energy sum_xi |h(xi)|^2 by definition: every pair's sum
    index and complex weight f(x) f(y) at once, binned over the p^n sums."""
    V = f.variety
    p = V.field.p
    wrap = np.arange(2 * p - 1) % p
    idx = np.zeros((len(V), len(V)), dtype=np.int64)
    for col in V.array.T:
        idx *= p
        idx += wrap[np.add.outer(col, col)]
    idx = idx.reshape(-1)
    w = np.multiply.outer(f.values, f.values).reshape(-1)
    h_re = np.bincount(idx, weights=w.real, minlength=p**V.dim)
    h_im = np.bincount(idx, weights=w.imag, minlength=p**V.dim)
    return float(h_re @ h_re + h_im @ h_im)


def assert_antipodal_identity(f):
    """The antipodal energy equals the energy by definition, and the r = 4
    ratio the transform's L^4 ratio, each to 1e-12 relative. Returns the
    number of points of V whose antipode is in V."""
    pairs = fourier._antipodes(f.variety)
    assert pairs is not None
    energy = fourier._antipodal_energy(f.values, *pairs)
    assert energy == pytest.approx(pair_sum_energy_in_one_block(f), rel=1e-12)
    assert fourier.extension_ratio(f, 4.0) == pytest.approx(transform_l4_ratio(f), rel=1e-12)
    return len(pairs[0])


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p", ANTIPODAL_PRIMES)
def test_antipodal_identity_on_every_nonzero_sphere(n, p):
    spheres = nonzero_spheres(p, n)
    assert len(spheres) == (p - 1 if n == 2 else (p - 1) // 2)
    missed = 0
    for i, V in enumerate(spheres):
        assert assert_antipodal_identity(gaussian_function(V, seed=i)) == len(V)
        for size in sorted({1, len(V) // 2, len(V) - 1} - {0}):
            sub = random_subset(V, size, seed=100 * i + size)
            missed += len(sub) - assert_antipodal_identity(gaussian_function(sub, seed=size))
    assert missed > 0  # some subsets hold a point without its antipode


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ANTIPODAL_PRIMES), st.integers(1, 2), st.data())
def test_antipodal_identity_property(p, n, data):
    V = data.draw(st.sampled_from(nonzero_spheres(p, n)))
    idx = data.draw(st.sets(st.integers(0, len(V) - 1), min_size=1))
    part = st.floats(-10, 10, allow_nan=False, allow_subnormal=False)
    vals = data.draw(st.lists(st.tuples(part, part), min_size=len(idx), max_size=len(idx)))
    vals = np.array([complex(a, b) for a, b in vals])
    if not np.abs(vals).max() > 1e-3:
        return
    sub = PointSet.build(V.field, n, V.array[sorted(idx)])
    assert_antipodal_identity(fourier.SurfaceFunction(sub, vals))


def count_routes(monkeypatch):
    """Count the calls of the antipodal energy and the transform, each still
    computing its value."""
    calls = {"antipodal": 0, "transform": 0}
    for key, name in [("antipodal", "_antipodal_energy"), ("transform", "_transform")]:
        original = getattr(fourier, name)

        def counted(*a, original=original, key=key, **kw):
            calls[key] += 1
            return original(*a, **kw)

        monkeypatch.setattr(fourier, name, counted)
    return calls


def two_circles(p, r1, r2):
    f = PrimeField(p)
    return enum_sphere(f, 2, r1).union(enum_sphere(f, 2, r2))


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: enum_sphere(PrimeField(13), 2, 0), id="radius0-two-lines"),
        pytest.param(lambda: enum_sphere(PrimeField(7), 2, 0), id="radius0-origin"),
        pytest.param(lambda: enum_sphere(PrimeField(5), 3, 1), id="n3-sphere"),
        pytest.param(lambda: random_subset(enum_sphere(PrimeField(7), 3, 2), 12, seed=1), id="n3-sphere-subset"),
        pytest.param(lambda: random_subset(two_circles(7, 1, 2), 5, seed=0), id="mixed-radius-subset"),
        pytest.param(lambda: two_circles(7, 1, 3), id="mixed-radius-circles"),
    ],
)
def test_antipodal_route_declines(monkeypatch, make):
    # off one sphere of nonzero radius in n <= 2, r = 4 takes the transform
    V = make()
    assert fourier._antipodes(V) is None
    f = gaussian_function(V, seed=len(V))
    expect = transform_l4_ratio(f)
    calls = count_routes(monkeypatch)
    assert fourier.extension_ratio(f, 4.0) == pytest.approx(expect, rel=1e-12)
    assert calls == {"antipodal": 0, "transform": 1}


def test_antipodal_route_takes_only_r4(monkeypatch):
    f = gaussian_function(enum_sphere(PrimeField(13), 2, 3), seed=2)
    calls = count_routes(monkeypatch)
    for r_exp in (2.0, 3.0, 4.5):
        fourier.extension_ratio(f, r_exp)
    assert calls == {"antipodal": 0, "transform": 3}
    fourier.extension_ratio(f, 4.0)
    assert calls == {"antipodal": 1, "transform": 3}


@pytest.mark.parametrize("n,p", [(1, 13), (2, 23), (2, 29)])
def test_extension_stats_on_circles_build_no_table(monkeypatch, n, p):
    calls = count_routes(monkeypatch)
    stats = fourier.extension_ratio_stats(PrimeField(p), n=n, trials=40, seed=1)
    assert calls == {"antipodal": stats["trials"], "transform": 0}


def stats_by_enumeration(field, n, trials, seed, radius=None):
    """extension_ratio_stats at r = 4 as it was written before the norm-table
    spheres and the energy route: one enum_sphere per new radius, the L^4
    norm from the dense transform."""
    rng = np.random.default_rng(seed)
    ratios, spheres = [], {}
    for _ in range(trials):
        r = radius if radius is not None else int(rng.integers(1, field.p))
        if r not in spheres:
            spheres[r] = enum_sphere(field, n, r)
        V = spheres[r]
        if not len(V):
            continue
        vals = rng.standard_normal(len(V)) + 1j * rng.standard_normal(len(V))
        ratios.append(transform_l4_ratio(fourier.SurfaceFunction(V, vals)))
    return {"p": field.p, "n": n, "r_exp": 4.0, "trials": len(ratios),
            "max_ratio": max(ratios), "mean_ratio": sum(ratios) / len(ratios)}


@pytest.mark.parametrize("p", [23, 43])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("radius", [None, 5, 50])  # 50 >= p: reduced mod p
def test_extension_stats_match_the_enumerated_loop(p, seed, radius):
    field = PrimeField(p)
    got = fourier.extension_ratio_stats(field, 2, 4.0, trials=40, seed=seed, radius=radius)
    expect = stats_by_enumeration(field, 2, 40, seed, radius)
    assert got.keys() == expect.keys()
    for key, value in expect.items():
        assert got[key] == pytest.approx(value, rel=1e-12), key


# the norm table is sorted as uint8 at p = 251 (p - 1 = 250 <= 255) and as
# uint16 at p = 257, just past that limit, and at 401
@pytest.mark.parametrize("n,p", [(1, 7), (1, 13), (2, 3), (2, 11), (3, 5), (3, 7), (4, 3), (2, 251), (2, 257), (2, 401)])
def test_extension_stats_spheres_are_the_enumerated_spheres(monkeypatch, n, p):
    field = PrimeField(p)
    seen = []
    monkeypatch.setattr(fourier, "_ratio", lambda V, vals, r_exp, antipodes, cap: seen.append(V) or 1.0)
    # the statistics promise spheres of nonzero radius: the zero sphere is refused
    with pytest.raises(ValueError, match="radius must be nonzero mod p"):
        fourier.extension_ratio_stats(field, n, trials=1, radius=0)
    assert not seen
    for r in range(1, p):
        expect = enum_sphere(field, n, r)
        if len(expect):
            fourier.extension_ratio_stats(field, n, trials=1, radius=r)
            assert seen.pop() == expect
        else:
            with pytest.raises(ValueError, match="empty"):
                fourier.extension_ratio_stats(field, n, trials=1, radius=r)


@pytest.mark.parametrize(
    "p,n,r_exp,seed",
    [(13, 1, 4.0, 4), (23, 2, 4.0, 1), (7, 2, 3.0, 2)],
    ids=["energy-n1", "energy-n2", "dense"],
)
def test_extension_stats_replay_the_public_ratio(monkeypatch, p, n, r_exp, seed):
    """The statistics are the max and mean of the public extension_ratio over
    the same draws: the radius, then two standard_normal(|V|), and nothing
    more for an empty sphere. Each nonempty trial calls fourier._ratio once,
    through the module attribute (which a wrapper can see)."""
    field, trials, calls = PrimeField(p), 30, []
    original = fourier._ratio
    monkeypatch.setattr(fourier, "_ratio", lambda *a: calls.append(a[3]) or original(*a))
    stats = fourier.extension_ratio_stats(field, n, r_exp, trials=trials, seed=seed)
    monkeypatch.undo()
    rng, ratios = np.random.default_rng(seed), []
    for _ in range(trials):
        V = enum_sphere(field, n, int(rng.integers(1, p)))
        if len(V):
            vals = rng.standard_normal(len(V)) + 1j * rng.standard_normal(len(V))
            ratios.append(fourier.extension_ratio(fourier.SurfaceFunction(V, vals), r_exp))
    assert 0 < len(ratios) == len(calls) == stats["trials"]
    assert n > 1 or len(ratios) < trials  # half the one-dimensional spheres are empty
    assert all((pairs is None) == (r_exp != 4) for pairs in calls)
    assert stats["max_ratio"] == max(ratios)
    assert stats["mean_ratio"] == sum(ratios) / len(ratios)


def test_extension_stats_refuse_a_bad_exponent_before_any_trial(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("drew before checking r_exp"))
    # 3 is a nonsquare mod 7, so every sphere is empty: no trial would reach a ratio
    for r_exp in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="r_exp must be finite and > 0"):
            fourier.extension_ratio_stats(PrimeField(7), n=1, r_exp=r_exp, trials=3, radius=3)


def test_extension_stats_reject_no_trials():
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            fourier.extension_ratio_stats(PrimeField(7), trials=trials)
    with pytest.raises(ValueError, match="sphere needs dimension >= 1"):
        fourier.extension_ratio_stats(PrimeField(7), n=0, trials=2)


def test_spectral_apex_bound_cases():
    f = PrimeField(7)
    singleton = PointSet.build(f, 2, [(3, 4)])
    lhs, rhs = fourier.spectral_apex_bound(singleton, (3, 4))
    assert lhs == 0
    rng = random.Random(17)
    for _ in range(8):
        X = rand_plane_subset(7, rng.randint(2, 30), rng.randrange(2**32))
        y = X.points[rng.randrange(len(X))]
        lhs, rhs = fourier.spectral_apex_bound(X, y)
        # exact side via the per-apex histogram of the counting module
        p = 7
        hist = [0] * p
        for x in X.points:
            hist[oracle.norm(tuple(a - b for a, b in zip(x, y)), p)] += 1
        assert lhs == sum(c * c for c in hist[1:])
        assert lhs <= 100 * rhs


def test_full_plane_apex_count_closed_form():
    p = 7
    X = space(p, 2)
    f = PrimeField(p)
    y = (3, 2)
    lhs, rhs = fourier.spectral_apex_bound(X, y)
    # translation invariance: per-radius circle sizes squared
    circle_sizes = [len(enum_sphere(f, 2, r)) for r in range(p)]
    assert lhs == sum(c * c for c in circle_sizes[1:])
    assert lhs <= 100 * rhs


def test_degenerate_pairs_spectral_identity():
    f = PrimeField(3)
    X0 = PointSet.build(f, 2, [(0, 0)])
    assert fourier.degenerate_pairs_fourier(X0) == pytest.approx(1.0)
    rng = random.Random(19)
    for _ in range(6):
        X = rand_plane_subset(7, 20, rng.randrange(2**32))
        direct = counting.profile(X).degenerate_pairs
        spectral = fourier.degenerate_pairs_fourier(X)
        assert spectral == pytest.approx(direct, abs=1e-9)
        # and the envelope |X|^2/q + q^((n-2)/2) |X|
        assert direct <= len(X) ** 2 / 7 + len(X) + 1e-9


def test_degenerate_pairs_closed_form_hypotheses():
    # p = 1 mod 4, outside the closed form: the enumerated sphere is used
    X = rand_plane_subset(13, 10, seed=3)
    direct = counting.profile(X).degenerate_pairs
    assert direct > len(X)  # -1 is a square mod 13: distinct points at distance zero
    assert fourier.degenerate_pairs_fourier(X) == pytest.approx(direct, abs=1e-9)


@pytest.mark.parametrize(
    "p,n,size",
    # the id names the zero-sphere route that (n, p) picks
    [pytest.param(31, 3, 1200, id="31-3-1200-direct"), pytest.param(3, 6, 400, id="3-6-400-closed")],
)
def test_degenerate_pairs_beyond_oracle_caps(p, n, size):
    X = random_subset(space(p, n), size, seed=7)
    direct = counting.profile(X).degenerate_pairs
    assert direct > 10 * size  # far more than the diagonal pairs
    assert abs(fourier.degenerate_pairs_fourier(X) - direct) <= 1e-6


def test_work_cap():
    X = rand_plane_subset(11, 30, seed=4)
    with pytest.raises(Exception):
        fourier.fourier_indicator(X, cap=100)
    S = enum_sphere(PrimeField(7), 2, 1)
    with pytest.raises(ResourceLimitError):
        fourier.inverse_surface_transform(fourier.SurfaceFunction(S, np.ones(len(S), dtype=complex)), cap=48)
    # the cap bounds the p^n table entries, not p^n * |X| (here 1.59e8 > 1e8)
    Y = random_subset(space(43, 3), 2000, seed=4)
    assert fourier.plancherel_error(fourier.fourier_indicator(Y), Y) < 1e-9


# rows recorded while verify_report still sampled from all of F_p^n built as
# a PointSet; drawing the same indices must give the same set, so the same
# floating-point values
VERIFY_ROWS = {
    (2, 3, 0): (0.0, 0.0),
    (2, 7, 0): (3.469446951953614e-18, 0.0),
    (2, 11, 5): (0.0, 5.551115123125783e-17),
    (2, 19, 1): (5.204170427930421e-18, 2.7755575615628914e-17),
    (2, 43, 7): (2.6020852139652106e-18, 1.3877787807814457e-17),
    (6, 3, 2): (5.551115123125783e-17, 3.469446951953614e-18),
}


@pytest.mark.parametrize("n, p, seed", list(VERIFY_ROWS))
def test_verify_report_rows_unchanged(n, p, seed):
    max_err, perr = VERIFY_ROWS[n, p, seed]
    row = fourier.verify_report(PrimeField(p), n, seed=seed)
    assert row == {"n": n, "p": p, "max_abs_err": max_err, "plancherel_err": perr}


@pytest.mark.parametrize("n, p, seed", [(2, 7, 0), (2, 43, 7), (3, 5, 4), (6, 3, 2)])
def test_verify_sample_is_subset_of_space(n, p, seed):
    # verify_report samples 4p points with a seed derived from its own
    size, derived = min(p**n, 4 * p), random.Random(seed).randrange(2**32)
    expect = random_subset(space(p, n), size, seed=derived)
    assert random_space_subset(PrimeField(p), n, size, derived) == expect


def test_verify_report_memory_stays_off_the_space():
    """At p^n = 1019^2 the sample takes a few hundred KB, not the
    p^n * n * 8 bytes of F_p^n as an array, and the whole report stays within
    four complex tables of p^n entries (F_p^n as Python tuples took 19)."""
    f, n = PrimeField(1019), 2
    grid_bytes, table_bytes = f.p**n * n * 8, f.p**n * 16
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        random_space_subset(f, n, 4 * f.p, random.Random(0).randrange(2**32))
        sample_peak = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        fourier.verify_report(f, n)
        report_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert sample_peak < grid_bytes / 20
    assert report_peak < 4 * table_bytes


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return result, peak


def test_zero_sphere_check_holds_one_table():
    """The closed-form check works in place on the direct table: at p^n =
    1019^2 it peaks at one complex table of p^n entries (it held three)."""
    f, n = PrimeField(1019), 2
    err, peak = _traced_peak(fourier.zero_sphere_max_error, f, n)
    assert err < 1e-12
    assert peak < 1.25 * f.p**n * 16


def test_indicator_transform_holds_one_table():
    """fftn and the p^(-n) scale run in place on the scattered grid: at p^n =
    1019^2 the transform peaks at one complex table (it held three)."""
    p = 1019
    X = rand_plane_subset(p, 3000, seed=4)
    t, peak = _traced_peak(fourier.fourier_indicator, X)
    assert t.values.shape == (p, p) and t.values[0, 0] == pytest.approx(3000 / p**2)
    assert peak < 1.25 * p**2 * 16


def test_surface_transform_holds_one_table():
    """ifftn and the p^n/|V| scale run in place: one complex table at 1019^2."""
    p = 1019
    V = enum_sphere(PrimeField(p), 2, 5)
    vals = np.random.default_rng(3).standard_normal(len(V)) + 0j
    t, peak = _traced_peak(fourier.inverse_surface_transform, fourier.SurfaceFunction(V, vals))
    assert t.shape == (p, p) and t[0, 0] == pytest.approx(vals.sum() / len(V))
    assert peak < 1.25 * p**2 * 16


def _fft_uses(tree):
    """Nodes that reach numpy's FFT: `np.fft` attributes and fft imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "fft":
            yield node
        elif isinstance(node, ast.ImportFrom) and "fft" in " ".join([node.module or ""] + [a.name for a in node.names]):
            yield node
        elif isinstance(node, ast.Import) and any("fft" in a.name for a in node.names):
            yield node


def test_no_module_keeps_a_cache():
    """No ffgeom module holds a functools cache: each result is found where
    it is used, and no call hashes its arguments to look one up."""
    names = [info.name for info in pkgutil.iter_modules(ffgeom.__path__)]
    assert "fourier" in names
    cached = [
        f"{module.__name__}.{name}"
        for module in [ffgeom, *(importlib.import_module(f"ffgeom.{name}") for name in names)]
        for name, obj in vars(module).items()
        if hasattr(obj, "cache_clear")
    ]
    assert not cached


def test_every_fft_is_in_the_one_transform_routine():
    """fourier._transform is the package's only FFT call site."""
    inside, outside = [], []
    for path in sorted(Path(fourier.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        fn = next((n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_transform"), None)
        helper = {id(n) for n in ast.walk(fn)} if path.name == "fourier.py" and fn else set()
        for node in _fft_uses(tree):
            (inside if id(node) in helper else outside).append(f"{path.name}:{node.lineno}")
    assert inside and not outside, outside
