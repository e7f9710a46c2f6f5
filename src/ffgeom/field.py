"""Prime-field arithmetic for an odd prime modulus p.

Scalars are plain Python ints reduced into [0, p). A PrimeField holds only
p; vectors and their dot products live in numpy arrays in the library and in
tuples in the oracle. The square root of -1 comes from Euler's criterion,
not from a generator of the multiplicative group, so p - 1 is never factored.

A PrimeField is a frozen dataclass, safe to share across threads; every
method is a pure function of its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the twelve prime bases 2..37: exact for
    every n below 3.18 * 10^23, the least strong pseudoprime to all of them
    (OEIS A014233), and so for every modulus below 2^63 that PrimeField takes."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for a in bases:
        if n % a == 0:
            return n == a
    if n < 41 * 41:  # a composite this small has a prime factor <= 37
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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


@dataclass(frozen=True)
class PrimeField:
    """The field Z/pZ for an odd prime p."""

    p: int

    def __post_init__(self):
        if self.p >= 2**63:
            raise ValueError(f"modulus {self.p} does not fit int64 points: need p < 2^63")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        if self.p == 2:
            raise ValueError("modulus must be an odd prime")

    # -- quadratic residues --------------------------------------------------

    def sqrt_minus_one(self) -> int | None:
        """The smaller square root of -1, or None when p = 3 mod 4."""
        if self.p % 4 != 1:
            return None
        # Euler's criterion: the least c with c^((p-1)/2) = -1 is a non-residue,
        # so r = c^((p-1)/4) has r^2 = -1
        p = self.p
        c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
        r = pow(c, (p - 1) // 4, p)
        return min(r, p - r)
