"""Point sets in F_p^d and enumeration of paraboloids and spheres.

A PointSet stores its points sorted lexicographically with constant-time
membership, so iteration order, serialization, and every count derived from
one are reproducible bit for bit. Instances are immutable and safe to share
across threads.

The paraboloid in dimension d is the graph of the squared length of the
first d-1 coordinates; the sphere of radius r in dimension n is the level
set of the sum of n squares.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .field import PrimeField

# Default ceiling on enumerated points; override per call (CLI: --cap).
DEFAULT_ENUM_CAP = 100_000_000


class ResourceLimitError(RuntimeError):
    """Raised when an enumeration would exceed the configured cap."""


@dataclass(frozen=True)
class PointSet:
    """An immutable, deduplicated, lexicographically sorted set of points."""

    field: PrimeField
    dim: int
    points: tuple[tuple[int, ...], ...]

    @staticmethod
    def build(field: PrimeField, dim: int, pts) -> "PointSet":
        """Canonical constructor: reduces mod p, dedupes, sorts."""
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        p = field.p
        canon = set()
        for pt in pts:
            t = tuple(c % p for c in pt)
            if len(t) != dim:
                raise ValueError(f"point {t} has length {len(t)}, expected {dim}")
            canon.add(t)
        return PointSet(field=field, dim=dim, points=tuple(sorted(canon)))

    @cached_property
    def _member(self) -> frozenset:
        return frozenset(self.points)

    @cached_property
    def array(self) -> np.ndarray:
        """Points as an (n, dim) int64 array; read-only."""
        arr = np.array(self.points, dtype=np.int64).reshape(len(self.points), self.dim)
        arr.setflags(write=False)
        return arr

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, pt) -> bool:
        return tuple(pt) in self._member

    def union(self, other: "PointSet") -> "PointSet":
        if other.field != self.field or other.dim != self.dim:
            raise ValueError("union requires matching field and dimension")
        return PointSet.build(self.field, self.dim, self.points + other.points)

    # -- plain-text serialization: "p d count" header, one point per line --

    def to_text(self) -> str:
        lines = [f"{self.field.p} {self.dim} {len(self.points)}"]
        lines.extend(" ".join(map(str, pt)) for pt in self.points)
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        Path(path).write_text(self.to_text(), encoding="utf-8")

    @staticmethod
    def from_text(text: str) -> "PointSet":
        lines = text.splitlines()
        if not lines:
            raise ValueError("empty point-set document")
        head = lines[0].split()
        if len(head) != 3:
            raise ValueError(f"malformed header {lines[0]!r}, expected 'p d count'")
        p, dim, count = (int(x) for x in head)
        fld = PrimeField(p)
        pts = [tuple(int(x) for x in ln.split()) for ln in lines[1:] if ln.strip()]
        if len(pts) != count:
            raise ValueError(f"expected {count} points, found {len(pts)}")
        ps = PointSet.build(fld, dim, pts)
        if len(ps) != count:
            raise ValueError("duplicate points in document")
        return ps

    @staticmethod
    def load(path) -> "PointSet":
        return PointSet.from_text(Path(path).read_text(encoding="utf-8"))


def _check_cap(n_points: int, cap: int | None) -> None:
    limit = DEFAULT_ENUM_CAP if cap is None else cap
    if n_points > limit:
        raise ResourceLimitError(f"enumeration of {n_points} points exceeds cap {limit}")


def enum_paraboloid(field: PrimeField, d: int, cap: int | None = None) -> PointSet:
    """All points (x, ||x||) for x in F_p^(d-1); size p^(d-1)."""
    if d < 2:
        raise ValueError("paraboloid needs dimension >= 2")
    p = field.p
    _check_cap(p ** (d - 1), cap)
    base = np.indices((p,) * (d - 1), dtype=np.int64).reshape(d - 1, -1).T
    norms = (base * base).sum(axis=1) % p
    pts = np.concatenate([base, norms[:, None]], axis=1)
    return PointSet.build(field, d, map(tuple, pts.tolist()))


def enum_plane(field: PrimeField) -> PointSet:
    """All p^2 points of F_p^2."""
    p = field.p
    return PointSet.build(field, 2, ((a, b) for a in range(p) for b in range(p)))


def enum_sphere(field: PrimeField, n: int, r: int, cap: int | None = None) -> PointSet:
    """All points of F_p^n with coordinate squares summing to r."""
    if n < 1:
        raise ValueError("sphere needs dimension >= 1")
    p = field.p
    r %= p
    _check_cap(p ** (n - 1) * 2, cap)
    roots = [field.sqrt(t) for t in range(p)]
    pts: list[tuple[int, ...]] = []
    for prefix in itertools.product(range(p), repeat=n - 1):
        t = (r - sum(c * c for c in prefix)) % p
        for s in roots[t]:
            pts.append(prefix + (s,))
    return PointSet.build(field, n, pts)


def random_subset(source: PointSet, size: int, seed: int) -> PointSet:
    """Uniform sample without replacement, reproducible from seed."""
    if size > len(source):
        raise ValueError(f"sample size {size} exceeds population {len(source)}")
    rng = random.Random(seed)
    idx = rng.sample(range(len(source)), size)
    return PointSet.build(source.field, source.dim, (source.points[i] for i in idx))


def bar_projection(ps: PointSet) -> PointSet:
    """Drop the last coordinate of every point (deduplicating)."""
    if ps.dim < 2:
        raise ValueError("projection needs dimension >= 2")
    return PointSet.build(ps.field, ps.dim - 1, (pt[:-1] for pt in ps.points))


def restrict_nonzero_base(ps: PointSet) -> PointSet:
    """Keep only points whose first dim-1 coordinates have nonzero norm."""
    fld = ps.field
    keep = [pt for pt in ps.points if fld.norm(pt[:-1]) != 0]
    return PointSet.build(fld, ps.dim, keep)


def on_paraboloid(ps: PointSet) -> bool:
    """Whether every point's last coordinate is the norm of the rest."""
    fld = ps.field
    return all(pt[-1] == fld.norm(pt[:-1]) for pt in ps.points)
