import itertools
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffgeom.field import PrimeField, is_prime, prime_factors

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def test_rejects_non_prime_and_even():
    for bad in (1, 2, 4, 9, 15, 100):
        with pytest.raises(ValueError):
            PrimeField(bad)


def trial_division(n):
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division_below_10_5():
    assert [n for n in range(10**5) if is_prime(n)] == [n for n in range(10**5) if trial_division(n)]


def test_is_prime_large_moduli():
    assert not is_prime(3_215_031_751)  # a strong pseudoprime to the bases 2, 3, 5 and 7
    assert is_prime(2**61 - 1) and is_prime(10**18 + 3)
    assert not is_prime((2**31 - 1) * (2**61 - 1))


def test_rejects_a_modulus_above_int64():
    with pytest.raises(ValueError, match="does not fit int64"):
        PrimeField(2**64 + 13)
    assert PrimeField(2**61 - 1).p == 2**61 - 1


def test_sqrt_examples():
    assert PrimeField(13).sqrt_minus_one() == 5  # 25 = -1 mod 13
    assert PrimeField(7).sqrt_minus_one() is None


def test_sqrt_minus_one_iff_residue_class():
    p = 3
    while p < 200:
        if is_prime(p):
            f = PrimeField(p)
            i = f.sqrt_minus_one()
            assert (i is not None) == (p % 4 == 1)
            if i is not None:
                # the smaller root: the lines family and the sweep golden use it
                assert i * i % p == p - 1 and i < p - i
        p += 2


def test_sqrt_minus_one_never_factors_p_minus_1():
    # p - 1 = 4q with q prime: trial division of p - 1 would run to sqrt(q) ~ 5e8
    p = 1000000000000014653
    start = time.perf_counter()
    i = PrimeField(p).sqrt_minus_one()
    assert time.perf_counter() - start < 1
    assert i * i % p == p - 1 and i < p - i
    assert PrimeField(1000000000000007243).sqrt_minus_one() is None


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_isotropy_rule_matches_brute_force(p, m):
    f = PrimeField(p)
    nonzero_zero = any(
        sum(c * c for c in v) % p == 0 for v in itertools.product(range(p), repeat=m) if any(v)
    )
    # the rule `counting.profile` routes by: a null-line route at m = 2, a scan from m = 3
    assert (m >= 3 or (m == 2 and f.sqrt_minus_one() is not None)) == nonzero_zero


@settings(max_examples=50)
@given(st.integers(2, 10**6))
def test_prime_factors_multiply_back(n):
    fs = prime_factors(n)
    assert all(is_prime(q) for q in fs)
    m = n
    for q in fs:
        while m % q == 0:
            m //= q
    assert m == 1
    assert math.prod(fs) <= n
