"""Character-sum Fourier engine over F_p^n.

Normalization, fixed package-wide: the transform of an indicator is

    Xhat(m) = p^(-n) * sum_{x in X} chi(-m.x)

so Plancherel reads sum_m |Xhat(m)|^2 = p^(-n) |X| and inversion is
1_X(x) = sum_m Xhat(m) chi(m.x). Every constant downstream (the zero-sphere
transform, the degenerate-pair identity, the per-apex spectral bound) is
derived for this convention and pinned by exact-agreement tests against
direct counts.

Tables are dense over all p^n frequencies, computed as n-dimensional DFTs
of a function scattered on the (p,)*n grid (pocketfft handles prime
lengths). `np.fft.fftn` sums against exp(-2 pi i m.x/p) = chi(-m.x), so
Xhat = fftn(1_X) * p^(-n); `np.fft.ifftn` sums against chi(+m.x) and
divides by p^n. The cost is O(p^n log p^n) whatever the number of points,
so the enumeration cap bounds the table's p^n entries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .field import PrimeField
from .varieties import PointSet, _check_cap, _space, enum_sphere


@lru_cache(maxsize=32)
def _freq_norms(p: int, n: int) -> np.ndarray:
    """||m|| of every frequency m in lexicographic order, by outer sums."""
    sq = np.arange(p, dtype=np.int64) ** 2 % p
    out = sq
    for _ in range(n - 1):
        out = np.add.outer(out, sq) % p
    out = out.reshape(-1)
    out.setflags(write=False)
    return out


def all_frequencies(field: PrimeField, n: int) -> list[tuple[int, ...]]:
    return [tuple(row) for row in _space(field.p, n).tolist()]


@lru_cache(maxsize=32)
def _zero_sphere(p: int, n: int) -> PointSet:
    return enum_sphere(PrimeField(p), n, 0)


def _grid(V: PointSet, values) -> np.ndarray:
    """`values` scattered at the points of V on the (p,)*n grid, zero elsewhere."""
    grid = np.zeros((V.field.p,) * V.dim, dtype=np.complex128)
    grid[tuple(V.array.T)] = values
    return grid


@dataclass(frozen=True)
class SpectralTable:
    """Dense complex coefficients indexed by frequency vectors in F_p^n."""

    field: PrimeField
    n: int
    values: np.ndarray  # shape (p,)*n, complex128

    def __getitem__(self, m) -> complex:
        return complex(self.values[tuple(c % self.field.p for c in m)])

    @property
    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)


@dataclass(frozen=True)
class SurfaceFunction:
    """A complex-valued function living on the points of a variety."""

    variety: PointSet
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) != len(self.variety):
            raise ValueError("one value per variety point required")

    @staticmethod
    def constant(variety: PointSet, value: complex = 1.0) -> "SurfaceFunction":
        return SurfaceFunction(variety, np.full(len(variety), value, dtype=np.complex128))


def fourier_indicator(X: PointSet, cap: int | None = None) -> SpectralTable:
    """Xhat(m) = p^(-n) sum_{x in X} chi(-m.x) over all p^n frequencies."""
    p, n = X.field.p, X.dim
    _check_cap(p**n, cap)
    # transformed and scaled in place: one complex table in all
    table = _grid(X, 1.0)
    np.fft.fftn(table, out=table)
    table *= float(p) ** (-n)
    return SpectralTable(X.field, n, table)


def plancherel_error(table: SpectralTable, X: PointSet) -> float:
    """|sum_m |Xhat(m)|^2 - p^(-n)|X)|, zero in exact arithmetic."""
    p, n = table.field.p, table.n
    return abs(float((np.abs(table.flat) ** 2).sum()) - len(X) * float(p) ** (-n))


# -- the zero-radius sphere ----------------------------------------------


def zero_sphere_hat_direct(field: PrimeField, n: int, m) -> complex:
    """p^(-n) sum over the zero sphere of chi(m.y), by enumeration."""
    S0 = _zero_sphere(field.p, n)
    p = field.p
    dots = (S0.array @ np.array(m, dtype=np.int64)) % p
    return complex(field.chi_table[dots].sum() * float(p) ** (-n))


def zero_sphere_hat(field: PrimeField, n: int, m) -> complex:
    """Closed form: p^(-1) at m = 0, minus p^(-(n+2)/2) times (p-1) when
    ||m|| = 0 and times -1 otherwise. Requires n = 2 mod 4 and p = 3 mod 4."""
    if n % 4 != 2:
        raise ValueError("closed form requires dimension 2 mod 4")
    if field.p % 4 != 3:
        raise ValueError("closed form requires p = 3 mod 4")
    p = field.p
    m = tuple(c % p for c in m)
    delta = 1.0 / p if all(c == 0 for c in m) else 0.0
    row = (p - 1) if field.norm(m) == 0 else -1
    return complex(delta - float(p) ** (-(n + 2) // 2) * row)


def zero_sphere_hat_table(field: PrimeField, n: int, method: str = "closed") -> np.ndarray:
    """Flat table of the zero-sphere transform over all frequencies."""
    p = field.p
    if method == "closed":
        if n % 4 != 2 or p % 4 != 3:
            raise ValueError("closed form requires n = 2 mod 4 and p = 3 mod 4")
        norms = _freq_norms(p, n)
        out = np.where(norms == 0, p - 1.0, -1.0) * (-(float(p) ** (-(n + 2) // 2)))
        out = out.astype(np.complex128)
        out[0] += 1.0 / p
        return out
    if method == "direct":
        return np.fft.ifftn(_grid(_zero_sphere(p, n), 1.0)).reshape(-1)
    raise ValueError(f"unknown method {method!r}")


def zero_sphere_max_error(field: PrimeField, n: int) -> float:
    """Max absolute gap between the closed form and direct enumeration.

    The closed form is constant on each norm class, and the class ||m|| = 0
    is the zero sphere itself, so the gap is taken in place on the direct
    table: one complex table in all.
    """
    p = field.p
    if n % 4 != 2 or p % 4 != 3:
        raise ValueError("closed form requires n = 2 mod 4 and p = 3 mod 4")
    S0 = _zero_sphere(p, n)
    gap = _grid(S0, 1.0)
    np.fft.ifftn(gap, out=gap)
    scale = float(p) ** (-(n + 2) // 2)
    on = tuple(S0.array.T)
    # closed form: 1/p - (p - 1) scale at m = 0 (the first sphere point),
    # -(p - 1) scale elsewhere on the sphere and +scale off it
    sphere = gap[on] + (p - 1) * scale
    sphere[0] = gap.flat[0] - ((1 - p) * scale + 1.0 / p)
    gap -= scale
    gap[on] = sphere
    return max(float(np.abs(row).max()) for row in gap)


# -- surface measures and extension ratios --------------------------------


def inverse_surface_transform(f: SurfaceFunction, cap: int | None = None) -> SpectralTable:
    """(f dsigma)^vee (c) = |V|^(-1) sum_{x in V} chi(c.x) f(x), dense in c."""
    V = f.variety
    if not len(V):
        raise ValueError("empty variety")
    p, n = V.field.p, V.dim
    _check_cap(p**n, cap)
    table = _grid(V, f.values)
    np.fft.ifftn(table, out=table)
    table *= float(p) ** n / len(V)
    return SpectralTable(V.field, n, table)


def extension_ratio(f: SurfaceFunction, r_exp: float, cap: int | None = None) -> float:
    """L^r norm (counting measure) of (f dsigma)^vee over the L^2 norm of f
    under the normalized surface measure."""
    denom_sq = float((np.abs(f.values) ** 2).sum()) / len(f.variety)
    if denom_sq == 0.0:
        raise ValueError("extension ratio undefined for the zero function")
    ext = inverse_surface_transform(f, cap)
    num = float((np.abs(ext.flat) ** r_exp).sum()) ** (1.0 / r_exp)
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
    one is pinned)."""
    rng = np.random.default_rng(seed)
    ratios = []
    spheres: dict[int, PointSet] = {}
    for _ in range(trials):
        r = radius if radius is not None else int(rng.integers(1, field.p))
        V = spheres.get(r)
        if V is None:
            V = enum_sphere(field, n, r, cap)
            spheres[r] = V
        if not len(V):
            continue
        vals = rng.standard_normal(len(V)) + 1j * rng.standard_normal(len(V))
        ratios.append(extension_ratio(SurfaceFunction(V, vals), r_exp, cap))
    if not ratios:
        raise ValueError(f"every sampled sphere in F_{field.p}^{n} is empty")
    return {
        "p": field.p,
        "n": n,
        "r_exp": r_exp,
        "trials": len(ratios),
        "max_ratio": max(ratios),
        "mean_ratio": sum(ratios) / len(ratios),
    }


# -- spectral bound for equal distances from an apex -----------------------


def spectral_apex_bound(X: PointSet, y) -> tuple[int, float]:
    """Exact count of ordered pairs (x, z) in X^2 equidistant from y at a
    nonzero distance, next to its spectral majorant

        |X|^2/p + p^n sum_{r != 0} |S_r-sum|^2 + p^n |zero-norm sum sans m=0|^2

    where S_r-sum = sum_{||m||=r} Xhat(m) chi(y.m).
    """
    p, n = X.field.p, X.dim
    yv = np.array(y, dtype=np.int64)
    dists = ((X.array - yv) ** 2 % p).sum(axis=1) % p
    hist = np.bincount(dists, minlength=p)
    lhs = int(sum(int(c) ** 2 for c in hist[1:]))

    table = fourier_indicator(X)
    norms = _freq_norms(p, n)
    dots = (_space(p, n) @ yv) % p
    weighted = table.flat * X.field.chi_table[dots]
    sums_re = np.bincount(norms, weights=weighted.real, minlength=p)
    sums_im = np.bincount(norms, weights=weighted.imag, minlength=p)
    sums = sums_re + 1j * sums_im
    nonzero_part = float((np.abs(sums[1:]) ** 2).sum())
    zero_part = abs(sums[0] - weighted[0]) ** 2
    rhs = len(X) ** 2 / p + float(p) ** n * (nonzero_part + zero_part)
    return lhs, rhs


def degenerate_pairs_fourier(X: PointSet, method: str = "closed") -> float:
    """Pairs at distance zero via p^(2n) sum_m |Xhat(m)|^2 S0hat(m); equals
    the direct pair count exactly under this package's normalization."""
    p, n = X.field.p, X.dim
    table = fourier_indicator(X)
    s0 = zero_sphere_hat_table(X.field, n, method)
    val = ((np.abs(table.flat) ** 2) * s0).sum() * float(p) ** (2 * n)
    return float(val.real)


def _verify_sample(field: PrimeField, n: int, seed: int) -> PointSet:
    """`random_subset` of all of F_p^n (4p points) without building F_p^n:
    its points in lexicographic order are the base-p digits of 0..p^n-1."""
    p = field.p
    size = min(p**n, 4 * p)
    idx = random.Random(random.Random(seed).randrange(2**32)).sample(range(p**n), size)
    return PointSet.build(field, n, np.array(np.unravel_index(sorted(idx), (p,) * n)).T)


def verify_report(field: PrimeField, n: int, seed: int = 0, cap: int | None = None) -> dict:
    """One row of the fourier-verify table for a (n, p) pair; the work is
    O(p^n), so the cap bounds p^n before anything is built."""
    p = field.p
    _check_cap(p**n, cap)
    max_err = zero_sphere_max_error(field, n)
    X = _verify_sample(field, n, seed)
    perr = plancherel_error(fourier_indicator(X), X)
    return {"n": n, "p": p, "max_abs_err": max_err, "plancherel_err": perr}
