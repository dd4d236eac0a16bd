"""Primality and prime powers: small ranges against a sieve,
proven Miller–Rabin cutoffs, large moduli, and the 2**64 cap."""

import random
from math import isqrt

import pytest

from gauge4.arith import MAX_MODULUS, is_prime, prime_power

MERSENNE_61 = 2**61 - 1
#: The largest prime below 2**64, and two primes just below 2**32.
BELOW_2_64 = 2**64 - 59
P32, Q32 = 4294967291, 4294967279


def sieve(n):
    flags = [True] * n
    flags[:2] = [False, False]
    for i in range(2, int(n**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = [False] * len(flags[i * i :: i])
    return flags


def test_is_prime_matches_a_sieve():
    # 2**12 is where trial division hands over to Miller–Rabin.
    flags = sieve(30000)
    assert [n for n in range(-5, 30000) if is_prime(n)] == [n for n in range(30000) if flags[n]]


def test_is_prime_rejects_strong_pseudoprimes_at_every_base_cutoff(hang_guard):
    # Each is the least strong pseudoprime to the bases of the cutoff below
    # it (3215031751 to 2, 3, 5, 7; 4759123141 to 2, 7, 61; 1122004669633
    # = 611557 * 1834669 to 2, 13, 23, 1662803), so each needs the bases of
    # the next range.
    for n in (2047, 1373653, 25326001, 3215031751, 4759123141, 1122004669633,
              2152302898747, 3474749660383, 341550071728321, 3825123056546413051):
        assert not is_prime(n), n
    for n in (561, 41041, 825265, 321197185, 5394826801):  # Carmichael numbers
        assert not is_prime(n), n


def test_is_prime_with_bases_2_7_61_matches_trial_division(hang_guard):
    # [25326001, 4759123141) is the range of the bases 2, 7, 61; the primes
    # below 69000 reach past its square root.
    flags = sieve(69000)
    primes = [p for p in range(69000) if flags[p]]
    rng = random.Random(4759)
    for _ in range(500):
        n = rng.randrange(25326001, 4759123141, 2)
        assert is_prime(n) == all(n % p for p in primes if p * p <= n), n


def test_is_prime_with_bases_2_13_23_1662803_matches_trial_division(hang_guard):
    # [4759123141, 1122004669633) is the range of Jaeschke's four bases; the
    # primes below 1059300 reach past its square root.
    flags = sieve(1059300)
    primes = [p for p in range(1059300) if flags[p]]
    rng = random.Random(1122)
    for _ in range(500):
        n = rng.randrange(4759123141, 1122004669633, 2)
        assert is_prime(n) == all(n % p for p in primes if p * p <= n), n


#: For each base of Jaeschke's row (2, 13, 23, 1 662 803), a composite p * q in
#: its range [4759123141, 1122004669633) that is a strong pseudoprime to the
#: other three bases, so only that base catches it: (base, n, p, q).
CAUGHT_BY_ONE_BASE = (
    (2, 5401593601, 42433, 127297),
    (13, 5588597071, 26431, 211441),
    (23, 6666227443, 28867, 230929),
    (1662803, 11734359787, 54163, 216649),
)


def strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, s))


def test_is_prime_needs_every_base_of_jaeschkes_row():
    bases = [base for base, *_ in CAUGHT_BY_ONE_BASE]
    for base, n, p, q in CAUGHT_BY_ONE_BASE:
        assert not is_prime(n), n
        # The data: n = p * q with p and q prime, in the row's range, and a
        # strong pseudoprime to every base of the row but its own.
        assert n == p * q and 4759123141 <= n < 1122004669633
        assert all(f % d for f in (p, q) for d in range(2, isqrt(f) + 1))
        assert [a for a in bases if not strong_probable_prime(n, a)] == [base]


def test_is_prime_on_large_primes(hang_guard):
    for p in (1000003, 1000000007, 2**31 - 1, MERSENNE_61, P32, Q32, BELOW_2_64):
        assert is_prime(p), p
    assert not is_prime(P32 * Q32)
    assert not is_prime(MAX_MODULUS)


def test_prime_power_edge_cases(hang_guard):
    assert prime_power(1) is None
    assert prime_power(0) is None
    assert prime_power(-9) is None
    assert prime_power(9) == (3, 2)
    assert prime_power(12) is None
    assert prime_power(36) is None
    assert prime_power(3**40) == (3, 40)
    assert prime_power(2**64) == (2, 64)
    assert prime_power(1000003**3) == (1000003, 3)
    assert prime_power(MERSENNE_61) == (MERSENNE_61, 1)
    assert prime_power(BELOW_2_64) == (BELOW_2_64, 1)
    assert prime_power(P32 * Q32) is None
    assert prime_power(10**18) is None


def test_moduli_above_the_cap_raise(hang_guard):
    for n in (MAX_MODULUS + 1, 2**89 - 1, 3**41):
        for fn in (is_prime, prime_power):
            with pytest.raises(ValueError, match="larger than 2\\*\\*64"):
                fn(n)
