"""Prime-field arithmetic for an odd prime modulus p.

Scalars are plain Python ints reduced into [0, p); vectors are tuples of
such ints. The canonical additive character chi(a) = exp(2*pi*i*a/p) is
served from a precomputed table of complex unit-circle values.

A PrimeField instance is immutable after construction and safe to share
across threads; every method is a pure function of its arguments.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Exhaustive square-root tables are built below this modulus; Tonelli-Shanks
# handles larger primes.
SQRT_TABLE_LIMIT = 10_000


def is_prime(n: int) -> bool:
    """Trial division up to sqrt(n); adequate for desk-scale moduli."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


class PrimeField:
    """The field Z/pZ for an odd prime p."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if p == 2:
            raise ValueError("modulus must be an odd prime")
        self.p = p
        self._primitive_root: int | None = None
        self._sqrt_table: list[tuple[int, ...]] | None = None
        self._chi_table: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    # -- quadratic residues --------------------------------------------------

    def legendre(self, a: int) -> int:
        """Legendre symbol in {-1, 0, +1}, by Euler's criterion."""
        a %= self.p
        if a == 0:
            return 0
        return 1 if pow(a, (self.p - 1) // 2, self.p) == 1 else -1

    def sqrt(self, a: int) -> tuple[int, ...]:
        """All square roots of a, sorted: 0, 1 or 2 values."""
        a %= self.p
        if a == 0:
            return (0,)
        if self.p < SQRT_TABLE_LIMIT:
            return self._table_sqrt(a)
        if self.legendre(a) != 1:
            return ()
        r = self._tonelli(a)
        return tuple(sorted({r, self.p - r}))

    def _table_sqrt(self, a: int) -> tuple[int, ...]:
        if self._sqrt_table is None:
            roots: list[list[int]] = [[] for _ in range(self.p)]
            for r in range(self.p):
                roots[r * r % self.p].append(r)
            self._sqrt_table = [tuple(rs) for rs in roots]
        return self._sqrt_table[a]

    def _tonelli(self, a: int) -> int:
        p = self.p
        if p % 4 == 3:
            return pow(a, (p + 1) // 4, p)
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while self.legendre(z) != -1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
        return r

    def isotropic(self, m: int) -> bool:
        """Whether a sum of m squares vanishes at a nonzero vector of F_p^m."""
        return m >= 3 or (m == 2 and self.p % 4 == 1)

    def sqrt_minus_one(self) -> int | None:
        """The smaller square root of -1, or None when p = 3 mod 4."""
        if self.p % 4 != 1:
            return None
        return min(self.sqrt(self.p - 1))

    # -- additive character --------------------------------------------------

    @property
    def chi_table(self) -> np.ndarray:
        """chi(a) for a in [0, p) as a read-only complex128 array."""
        if self._chi_table is None:
            tbl = np.exp(2j * np.pi * np.arange(self.p) / self.p)
            tbl.setflags(write=False)
            self._chi_table = tbl
        return self._chi_table

    def chi(self, a: int) -> complex:
        return complex(self.chi_table[a % self.p])

    # -- vectors ---------------------------------------------------------

    def dot(self, u: tuple[int, ...], v: tuple[int, ...]) -> int:
        if len(u) != len(v):
            raise ValueError(f"vector length mismatch: {len(u)} vs {len(v)}")
        return sum(a * b for a, b in zip(u, v)) % self.p

    def norm(self, v: tuple[int, ...]) -> int:
        """The quantity v_1^2 + ... + v_n^2 mod p (not a metric)."""
        return sum(a * a for a in v) % self.p

    # -- multiplicative structure ---------------------------------------

    def primitive_root(self) -> int:
        """Smallest generator of the multiplicative group, cached."""
        if self._primitive_root is None:
            factors = prime_factors(self.p - 1)
            g = 2
            while any(pow(g, (self.p - 1) // f, self.p) == 1 for f in factors):
                g += 1
            self._primitive_root = g
        return self._primitive_root


@lru_cache(maxsize=64)
def field(p: int) -> PrimeField:
    """Shared PrimeField instances keyed by modulus."""
    return PrimeField(p)
