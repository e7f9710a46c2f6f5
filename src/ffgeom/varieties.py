"""Point sets in F_p^d and enumeration of paraboloids and spheres.

A PointSet holds its points as one sorted int64 array: n rows of d
coordinates in [0, p), lexicographically increasing and so distinct, so
iteration order, serialization, and every count derived from one are
reproducible bit for bit. The array is read-only and instances are safe to
share across threads; `points`, the rows as tuples, is built on first use.

The paraboloid in dimension d is the graph of the squared length of the
first d-1 coordinates; the sphere of radius r in dimension n is the level
set of the sum of n squares.

Random subsets of F_p^n and of paraboloids are drawn from indices: row i of
F_p^n in lexicographic order is i in base p, and the paraboloid's rows follow
their base points, so no sample needs its variety enumerated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .field import PrimeField

# Default ceiling on enumerated points; override per call (CLI: --cap).
DEFAULT_ENUM_CAP = 100_000_000


class ResourceLimitError(RuntimeError):
    """Raised when an enumeration or a table would exceed the configured cap."""


def _space(p: int, k: int) -> np.ndarray:
    """All p^k points of F_p^k in lexicographic order, shape (p^k, k)."""
    return np.indices((p,) * k, dtype=np.int64).reshape(k, p**k).T


def _norms(arr: np.ndarray, p: int) -> np.ndarray:
    """The sum of squares of each row mod p, refused where int64 would wrap:
    entries below p cannot wrap it unless d (p - 1)^2 reaches 2^63."""
    d = arr.shape[1]
    if d * (p - 1) ** 2 >= 1 << 63 and d * int(arr.max(initial=0)) ** 2 >= 1 << 63:
        raise ValueError(f"norms of {d} coordinates overflow int64 at p = {p}")
    return (arr * arr).sum(axis=1) % p


def _increasing(arr: np.ndarray) -> bool:
    """Whether the rows are strictly increasing: the first nonzero entry of
    each row difference is positive."""
    step = np.diff(arr, axis=0)
    first = step[:, -1]
    for col in step.T[-2::-1]:
        first = np.where(col != 0, col, first)
    return bool((first > 0).all())


@dataclass(frozen=True, eq=False)
class PointSet:
    """An immutable, deduplicated, lexicographically sorted set of points."""

    field: PrimeField
    dim: int
    array: np.ndarray  # (n, dim) int64, rows strictly increasing, read-only

    @staticmethod
    def build(field: PrimeField, dim: int, pts) -> "PointSet":
        """Canonical constructor from an array or an iterable of points:
        reduces mod p, dedupes, sorts (rows already strictly increasing, as
        enumerations and samples emit them, skip the sort)."""
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        arr = np.array(pts if isinstance(pts, np.ndarray) else list(pts), dtype=np.int64)
        if len(arr) == 0:
            arr = arr.reshape(0, dim)
        if arr.ndim != 2 or arr.shape[1] != dim:
            raise ValueError(f"points must all have length {dim}, got shape {arr.shape}")
        arr %= field.p
        if not _increasing(arr):
            arr = arr[np.lexsort(arr.T[::-1])]
            arr = arr[np.diff(arr, axis=0, prepend=-1).any(axis=1)]  # drop repeated rows
        arr.setflags(write=False)
        return PointSet(field=field, dim=dim, array=arr)

    @cached_property
    def points(self) -> tuple[tuple[int, ...], ...]:
        """The rows of `array` as tuples of ints."""
        return tuple(map(tuple, self.array.tolist()))

    def __eq__(self, other: object) -> bool:
        same = isinstance(other, PointSet) and (other.field, other.dim) == (self.field, self.dim)
        return same and np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash((self.field, self.dim, self.array.tobytes()))

    def __len__(self) -> int:
        return len(self.array)

    def __iter__(self):
        return iter(self.points)

    def union(self, other: "PointSet") -> "PointSet":
        if other.field != self.field or other.dim != self.dim:
            raise ValueError("union requires matching field and dimension")
        return PointSet.build(self.field, self.dim, np.concatenate([self.array, other.array]))

    # -- plain-text serialization: "p d count" header, one point per line --

    def to_text(self) -> str:
        rows = (" ".join(["%d"] * self.dim) + "\n") * len(self)
        return f"{self.field.p} {self.dim} {len(self)}\n" + rows % tuple(self.array.ravel().tolist())

    def save(self, path) -> None:
        Path(path).write_text(self.to_text(), encoding="utf-8")

    @staticmethod
    def from_text(text: str) -> "PointSet":
        if not text:
            raise ValueError("empty point-set document")
        head, _, body = text.partition("\n")
        if len(head.split()) != 3:
            raise ValueError(f"malformed header {head!r}, expected 'p d count'")
        p, dim, count = (int(x) for x in head.split())
        rows = [ln for ln in body.splitlines() if ln.strip()]
        pts = np.loadtxt(rows, dtype=np.int64, comments=None, ndmin=2) if rows else []
        if len(pts) != count:
            raise ValueError(f"expected {count} points, found {len(pts)}")
        ps = PointSet.build(PrimeField(p), dim, pts)
        if len(ps) != count:
            raise ValueError("duplicate points in document")
        return ps

    @staticmethod
    def load(path) -> "PointSet":
        return PointSet.from_text(Path(path).read_text(encoding="utf-8"))


def _check_cap(count: int, cap: int | None, what: str) -> None:
    """Raise ResourceLimitError if count exceeds the cap; `what` names the
    counted items ("sphere points", "square-table entries") in the message."""
    limit = DEFAULT_ENUM_CAP if cap is None else cap
    if count > limit:
        raise ResourceLimitError(f"{what}: {count} exceeds cap {limit}")


def _check_power_cap(factor: int, base: int, exp: int, cap: int | None, what: str) -> None:
    """`_check_cap` on factor * base^exp (factor >= 1, base >= 2), which forms
    the power only when the exponent is at most the limit's bit length: past
    it the count exceeds the limit already, and the message shows the power."""
    limit = DEFAULT_ENUM_CAP if cap is None else cap
    if exp > limit.bit_length():
        power = f"{base}^{exp}" if factor == 1 else f"{factor} * {base}^{exp}"
        raise ResourceLimitError(f"{what}: {power} exceeds cap {limit}")
    _check_cap(factor * base**exp, cap, what)


def enum_paraboloid(field: PrimeField, d: int, cap: int | None = None) -> PointSet:
    """All points (x, ||x||) for x in F_p^(d-1); size p^(d-1)."""
    if d < 2:
        raise ValueError("paraboloid needs dimension >= 2")
    p = field.p
    _check_power_cap(1, p, d - 1, cap, "paraboloid points")
    base = _space(p, d - 1)
    return PointSet.build(field, d, np.column_stack([base, _norms(base, p)]))


def enum_sphere(field: PrimeField, n: int, r: int, cap: int | None = None) -> PointSet:
    """All points of F_p^n with coordinate squares summing to r."""
    if n < 1:
        raise ValueError("sphere needs dimension >= 1")
    p = field.p
    r %= p
    _check_power_cap(2, p, n - 1, cap, "sphere points")
    # root[t]: the smaller square root of t, or -1 for a non-square; the
    # other root of a nonzero square t is p - root[t]
    s = np.arange((p + 1) // 2, dtype=np.int64)
    root = np.full(p, -1, dtype=np.int64)
    root[s * s % p] = s
    prefix = _space(p, n - 1)
    last = root[(r - _norms(prefix, p)) % p]
    two = last > 0
    pts = np.column_stack([np.concatenate([prefix, prefix[two]]), np.concatenate([last, p - last[two]])])
    return PointSet.build(field, n, pts[pts[:, -1] >= 0])


def random_subset(source: PointSet, size: int, seed: int) -> PointSet:
    """Uniform sample without replacement, reproducible from seed."""
    return PointSet.build(source.field, source.dim, source.array[_sample(len(source), size, seed)])


def _sample(count: int, size: int, seed: int) -> np.ndarray:
    """The sorted indices of the `size` of `count` rows that seed draws."""
    if size > count:
        raise ValueError(f"sample size {size} exceeds population {count}")
    return np.array(sorted(random.Random(seed).sample(range(count), size)), dtype=np.int64)


def _space_sample(p: int, n: int, size: int, seed: int) -> np.ndarray:
    """The rows `random_subset` draws from F_p^n, from their indices alone."""
    if n >= 63 or p**n >= 1 << 63:  # random.sample takes the len() of range(p^n); p^63 >= 2^63
        raise ValueError(f"F_{p}^{n} has {p}^{n} points, too many to sample by index")
    return np.array(np.unravel_index(_sample(p**n, size, seed), (p,) * n)).T


def random_space_subset(field: PrimeField, n: int, size: int, seed: int, cap: int | None = None) -> PointSet:
    """`random_subset` of all of F_p^n without building F_p^n. The cap bounds size."""
    _check_cap(size, cap, "space points")
    return PointSet.build(field, n, _space_sample(field.p, n, size, seed))


def random_paraboloid_subset(field: PrimeField, d: int, size: int, seed: int, cap: int | None = None) -> PointSet:
    """`random_subset(enum_paraboloid(field, d), size, seed)` without the
    paraboloid: the same draw of base points, norms appended. The cap bounds size."""
    if d < 2:
        raise ValueError("paraboloid needs dimension >= 2")
    p = field.p
    _check_cap(size, cap, "paraboloid points")
    base = _space_sample(p, d - 1, size, seed)
    return PointSet.build(field, d, np.column_stack([base, _norms(base, p)]))


def bar_projection(ps: PointSet) -> PointSet:
    """Drop the last coordinate of every point (deduplicating)."""
    if ps.dim < 2:
        raise ValueError("projection needs dimension >= 2")
    return PointSet.build(ps.field, ps.dim - 1, ps.array[:, :-1])


def restrict_nonzero_base(ps: PointSet) -> PointSet:
    """Keep only points whose first dim-1 coordinates have nonzero norm."""
    arr = ps.array
    return PointSet.build(ps.field, ps.dim, arr[_norms(arr[:, :-1], ps.field.p) != 0])


def on_paraboloid(ps: PointSet) -> bool:
    """Whether every point's last coordinate is the norm of the rest."""
    arr = ps.array
    return bool((arr[:, -1] == _norms(arr[:, :-1], ps.field.p)).all())
