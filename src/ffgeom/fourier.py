"""Character-sum Fourier engine over F_p^n.

Normalization, fixed package-wide: the transform of an indicator is

    Xhat(m) = p^(-n) * sum_{x in X} chi(-m.x)

so Plancherel reads sum_m |Xhat(m)|^2 = p^(-n) |X| and inversion is
1_X(x) = sum_m Xhat(m) chi(m.x). Every constant downstream (the zero-sphere
transform, the degenerate-pair identity, the per-apex spectral bound) is
derived for this convention and pinned by exact-agreement tests against
direct counts.

Tables are dense over all p^n frequencies: `_transform` scatters a function
on the (p,)*n grid and takes its n-dimensional DFT in place (pocketfft
handles prime lengths). `np.fft.fftn` sums against exp(-2 pi i m.x/p) =
chi(-m.x), so Xhat = fftn(1_X) * p^(-n); `np.fft.ifftn` sums against
chi(+m.x) and divides by p^n. The cost is O(p^n log p^n) whatever the number
of points, so the enumeration cap bounds the table's p^n entries. The
zero-sphere transform takes its Gauss-sum closed form where (n, p) admit it,
n = 2 mod 4 and p = 3 mod 4 (Iosevich-Rudnev 2007), and the DFT elsewhere.

The r = 4 extension ratio is an additive energy. With F(c) = sum_{x in V}
chi(c.x) f(x), F(c)^2 = sum_xi h(xi) chi(c.xi) for the additive convolution
h(xi) = sum_{x + y = xi} f(x) f(y), so Plancherel gives

    sum_c |(f dsigma)^vee (c)|^4 = p^n |V|^(-4) sum_xi |h(xi)|^2,

the additive energy of f (Mockenhaupt-Tao 2004, Iosevich-Koh 2010).

On a sphere ||x|| = r != 0 in dimension n <= 2 the energy takes O(|V|). For
xi != 0, a point x of V with xi - x in V has ||xi - x|| = ||x||, that is
2 xi.x = ||xi||: a line (a point when n = 1). A conic of nonzero radius
holds no line (on x = a + tv, ||x|| is constant only if ||v|| = a.v = 0,
which puts a on the isotropic line through v and makes ||a|| = 0), so the
line meets V in at most two points, and x -> xi - x swaps them. So h(xi) is
f(x)^2 at xi = 2x, 2 f(x) f(y) for the one unordered pair {x, y} with
x + y = xi, or 0. With a = |f|^2,

    sum_xi |h(xi)|^2 = 2 (sum a)^2 - sum a^2 - 2 sum_x a_x a_(-x)
                       + |sum_x f(x) f(-x)|^2,

the last two sums over the x in V with -x in V: the pairs at xi = 0.

`extension_ratio` takes one of two routes:

- r = 4 on one sphere of nonzero radius in n <= 2 (circles, their subsets,
  the two-point spheres of n = 1): the identity above, from the sphere's
  antipodal pairs, which `extension_ratio_stats` finds once per sphere;
- every other exponent and variety: the dense transform.

Both check the cap on the transform table's p^n entries first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .field import PrimeField
from .varieties import PointSet, _check_power_cap, _norms, enum_sphere, random_space_subset


def _freq_norms(p: int, n: int) -> np.ndarray:
    """||m|| of every frequency m in lexicographic order, by outer sums."""
    sq = np.arange(p, dtype=np.int64) ** 2 % p
    out = sq
    for _ in range(n - 1):
        out = np.add.outer(out, sq) % p
    return out.reshape(-1)


def _transform(p: int, points: np.ndarray, values, inverse: bool = False, cap: int | None = None) -> np.ndarray:
    """`values` at the distinct rows of points, zero elsewhere on the (p,)*n
    grid, put through fftn (ifftn if inverse) in place. Callers scale it in
    place too, so a transform holds one complex table."""
    _check_power_cap(1, p, points.shape[1], cap, "transform-table entries")
    grid = np.zeros((p,) * points.shape[1], dtype=np.complex128)
    grid[tuple(points.T)] = values
    fft = np.fft.ifftn if inverse else np.fft.fftn
    fft(grid, out=grid)
    return grid


@dataclass(frozen=True)
class SpectralTable:
    """Dense complex coefficients indexed by frequency vectors in F_p^n."""

    values: np.ndarray  # shape (p,)*n, complex128


@dataclass(frozen=True)
class SurfaceFunction:
    """A complex-valued function living on the points of a variety."""

    variety: PointSet
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) != len(self.variety):
            raise ValueError("one value per variety point required")


def fourier_indicator(X: PointSet, cap: int | None = None) -> SpectralTable:
    """Xhat(m) = p^(-n) sum_{x in X} chi(-m.x) over all p^n frequencies."""
    p, n = X.field.p, X.dim
    table = _transform(p, X.array, 1.0, cap=cap)
    table *= float(p) ** (-n)
    return SpectralTable(table)


def plancherel_error(table: SpectralTable, X: PointSet) -> float:
    """|sum_m |Xhat(m)|^2 - p^(-n)|X)|, zero in exact arithmetic."""
    p, n = X.field.p, X.dim
    return abs(float((np.abs(table.values) ** 2).sum()) - len(X) * float(p) ** (-n))


# -- the zero-radius sphere ----------------------------------------------


def _zero_sphere_closed(p: int, n: int) -> tuple[float, float, float]:
    """The zero-sphere transform's closed form: 1/p - (p-1)s at m = 0, -(p-1)s
    on the rest of the cone ||m|| = 0 and s off it, s = p^(-(n+2)/2). A Gauss
    sum: requires n = 2 mod 4 and p = 3 mod 4."""
    if n % 4 != 2 or p % 4 != 3:
        raise ValueError("closed form requires n = 2 mod 4 and p = 3 mod 4")
    s = float(p) ** (-(n + 2) // 2)
    cone = -((p - 1) * s)
    return 1.0 / p + cone, cone, s


def zero_sphere_hat_table(field: PrimeField, n: int) -> np.ndarray:
    """Flat table of the zero-sphere transform over all frequencies: the
    closed form where it holds, the enumerated sphere's ifftn elsewhere."""
    p = field.p
    try:
        origin, cone, off = _zero_sphere_closed(p, n)
    except ValueError:
        return _transform(p, enum_sphere(field, n, 0).array, 1.0, inverse=True).reshape(-1)
    out = np.full(p**n, off, dtype=np.complex128)
    out[_freq_norms(p, n) == 0] = cone
    out[0] = origin
    return out


def zero_sphere_max_error(field: PrimeField, n: int, cap: int | None = None) -> float:
    """Max absolute gap between the closed form and direct enumeration, taken
    in place on the direct table (one complex table in all): the closed form
    is constant on the cone ||m|| = 0, which is the zero sphere, and off it.
    The cap bounds the table's p^n entries."""
    origin, cone, off = _zero_sphere_closed(field.p, n)
    S0 = enum_sphere(field, n, 0, cap)
    gap = _transform(field.p, S0.array, 1.0, inverse=True, cap=cap)
    on = tuple(S0.array.T)
    sphere = gap[on] - cone
    sphere[0] = gap.flat[0] - origin  # m = 0 is the first sphere point
    gap -= off
    gap[on] = sphere
    return max(float(np.abs(row).max()) for row in gap)


# -- surface measures and extension ratios --------------------------------


def inverse_surface_transform(f: SurfaceFunction, cap: int | None = None) -> np.ndarray:
    """(f dsigma)^vee (c) = |V|^(-1) sum_{x in V} chi(c.x) f(x), dense in c:
    a complex array of shape (p,)*n."""
    V = f.variety
    if not len(V):
        raise ValueError("empty variety")
    p, n = V.field.p, V.dim
    table = _transform(p, V.array, f.values, inverse=True, cap=cap)
    table *= float(p) ** n / len(V)
    return table


def _antipodes(V: PointSet) -> tuple[np.ndarray, np.ndarray] | None:
    """For V on one sphere ||x|| = r != 0 in dimension n <= 2: the rows x of
    V whose antipode -x is in V, and the row of -x for each. None for every
    other V, where a pair sum may come from more than one pair."""
    p, n = V.field.p, V.dim
    if n > 2:
        return None
    norms = _norms(V.array, p)
    if norms[0] == 0 or (norms != norms[0]).any():
        return None
    place = p ** np.arange(n - 1, -1, -1)
    flat = V.array @ place  # increasing: the rows are sorted
    neg = (-V.array % p) @ place
    at = np.minimum(np.searchsorted(flat, neg), len(V) - 1)
    rows = np.flatnonzero(flat[at] == neg)
    return rows, at[rows]


def _antipodal_energy(vals: np.ndarray, rows: np.ndarray, partners: np.ndarray) -> float:
    """sum_xi |h(xi)|^2 of the values on a sphere of nonzero radius in
    dimension n <= 2, from the antipodal pairs of `_antipodes` in O(|V|)
    (module docstring)."""
    a = vals.real**2 + vals.imag**2
    h0 = vals[rows] @ vals[partners]
    return float(2 * a.sum() ** 2 - a @ a - 2 * (a[rows] @ a[partners]) + (h0.real**2 + h0.imag**2))


def extension_ratio(f: SurfaceFunction, r_exp: float, cap: int | None = None) -> float:
    """L^r norm (counting measure) of (f dsigma)^vee over the L^2 norm of f
    under the normalized surface measure. At r = 4 the L^4 norm is the
    additive energy of f, taken from the antipodal pairs on a sphere of
    nonzero radius in dimension n <= 2 (module docstring)."""
    if not 0 < r_exp < np.inf:  # also rejects nan
        raise ValueError(f"r_exp must be finite and > 0, got {r_exp}")
    V = f.variety
    if not len(V):
        raise ValueError("empty variety")
    _check_power_cap(1, V.field.p, V.dim, cap, "transform-table entries")
    return _ratio(V, f.values, r_exp, _antipodes(V) if r_exp == 4 else None, cap)


def _ratio(V: PointSet, vals: np.ndarray, r_exp: float, antipodes: tuple | None, cap: int | None) -> float:
    """`extension_ratio` of vals on a nonempty V whose r_exp and cap are checked."""
    denom_sq = float((np.abs(vals) ** 2).sum()) / len(V)
    if denom_sq == 0.0:
        raise ValueError("extension ratio undefined for the zero function")
    if antipodes is not None:
        num = (float(V.field.p) ** V.dim * _antipodal_energy(vals, *antipodes)) ** 0.25 / len(V)
    else:
        g = np.abs(inverse_surface_transform(SurfaceFunction(V, vals), cap))
        top = g.max()  # scaled by the max, the sum neither underflows nor overflows at large r
        num = float(top * ((g / top) ** r_exp).sum() ** (1.0 / r_exp))
    return num / denom_sq**0.5


def extension_ratio_stats(
    field: PrimeField,
    n: int = 2,
    r_exp: float = 4.0,
    trials: int = 200,
    seed: int = 0,
    radius: int | None = None,
    cap: int | None = None,
) -> dict:
    """Max and mean extension ratio over random complex-gaussian surface
    functions on spheres of nonzero radius (random radius per trial unless
    one is pinned). Every sphere is a slice of one stable argsort of the
    frequency norms, so its rows come out in lexicographic order, as
    `enum_sphere` gives them, and `PointSet.build` need not sort them."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n < 1:
        raise ValueError("sphere needs dimension >= 1")
    p = field.p
    if radius is not None and radius % p == 0:
        raise ValueError(f"radius must be nonzero mod p = {p}, got {radius}")
    _check_power_cap(2, p, n - 1, cap, "sphere points")
    _check_power_cap(1, p, n, cap, "transform-table entries")
    if not 0 < r_exp < np.inf:
        raise ValueError(f"r_exp must be finite and > 0, got {r_exp}")
    _check_power_cap(2 * trials, p, n - 1, cap, "drawn values")  # 2 |V| a trial
    norms = _freq_norms(p, n)
    # the same stable order from the narrowest unsigned type that holds p - 1
    order = np.argsort(norms.astype(np.min_scalar_type(p - 1)), kind="stable")
    starts = np.concatenate([[0], np.cumsum(np.bincount(norms, minlength=p))])
    rng = np.random.default_rng(seed)
    ratios = []
    spheres: dict[int, tuple] = {}  # radius -> (sphere, its antipodal pairs at r = 4)
    for _ in range(trials):
        r = radius % p if radius is not None else int(rng.integers(1, p))
        if r not in spheres:
            flat = order[starts[r] : starts[r + 1]]
            V = PointSet.build(field, n, np.column_stack(np.unravel_index(flat, (p,) * n)))
            spheres[r] = V, _antipodes(V) if r_exp == 4 and len(V) else None
        V, antipodes = spheres[r]
        if not len(V):
            continue
        vals = rng.standard_normal(len(V)) + 1j * rng.standard_normal(len(V))
        ratios.append(_ratio(V, vals, r_exp, antipodes, cap))
    if not ratios:
        raise ValueError(f"every sampled sphere in F_{p}^{n} is empty")
    return {
        "p": p,
        "n": n,
        "r_exp": r_exp,
        "trials": len(ratios),
        "max_ratio": max(ratios),
        "mean_ratio": sum(ratios) / len(ratios),
    }


# -- spectral bound for equal distances from an apex -----------------------


def spectral_apex_bound(X: PointSet, y) -> tuple[int, float]:
    """Exact count of ordered pairs (x, z) in X^2 equidistant from y at a
    nonzero distance, next to its spectral majorant |X|^2/p + p^n sum_r |S_r|^2,
    S_r = sum_{m != 0, ||m|| = r} Xhat(m) chi(y.m). Xhat(m) chi(y.m) is the
    transform of the translate X - y, whose norms are the distances to y.
    """
    p, n = X.field.p, X.dim
    translate = (X.array - np.array(y, dtype=np.int64)) % p
    hist = np.bincount(_norms(translate, p), minlength=p)
    lhs = int(sum(int(c) ** 2 for c in hist[1:]))

    weighted = _transform(p, translate, 1.0).reshape(-1)  # p^n Xhat(m) chi(y.m)
    weighted[0] = 0.0  # m = 0 is outside every S_r
    norms = _freq_norms(p, n)
    sums_re = np.bincount(norms, weights=weighted.real, minlength=p)
    sums_im = np.bincount(norms, weights=weighted.imag, minlength=p)
    rhs = len(X) ** 2 / p + float(p) ** (-n) * float((sums_re**2 + sums_im**2).sum())
    return lhs, rhs


def degenerate_pairs_fourier(X: PointSet) -> float:
    """Pairs at distance zero via p^(2n) sum_m |Xhat(m)|^2 S0hat(m); equals
    the direct pair count exactly under this package's normalization."""
    p, n = X.field.p, X.dim
    table = fourier_indicator(X)
    s0 = zero_sphere_hat_table(X.field, n)
    val = ((np.abs(table.values.ravel()) ** 2) * s0).sum() * float(p) ** (2 * n)
    return float(val.real)


def verify_report(field: PrimeField, n: int, seed: int = 0, cap: int | None = None) -> dict:
    """One row of the fourier-verify table for a (n, p) pair; the work is
    O(p^n), so the cap bounds p^n before anything is built."""
    if n < 1:
        raise ValueError("sphere needs dimension >= 1")
    p = field.p
    _check_power_cap(1, p, n, cap, "transform-table entries")
    max_err = zero_sphere_max_error(field, n, cap)
    X = random_space_subset(field, n, min(p**n, 4 * p), random.Random(seed).randrange(2**32), cap)
    perr = plancherel_error(fourier_indicator(X, cap), X)
    return {"n": n, "p": p, "max_abs_err": max_err, "plancherel_err": perr}
