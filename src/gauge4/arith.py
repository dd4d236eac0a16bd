"""Exact integer arithmetic: primality and prime powers.

Moduli reach this module from user input: torsion orders such as
``Z/2305843009213693951`` and primes for local verdicts.  Every answer is
exact and deterministic:

- ``is_prime`` uses trial division for small n and above that the
  Miller–Rabin test with the bases that ``_MR_CUTOFFS`` lists for n's
  range, an explicit tuple per range, each proven to let no composite
  below its bound pass (Jaeschke 1993, with 2, 7, 61 below 4 759 123 141
  and 2, 13, 23, 1 662 803 below 1 122 004 669 633; Jiang–Deng 2014 for
  all twelve primes 2..37, past 3 * 10**23);
- ``prime_power`` tests n itself, then its integer k-th roots for primes k.

Nothing here factors: torsion is compared by invariant factors, which
``homology`` finds by factor refinement.  One cap keeps every call fast:
an integer whose primality must be decided is at most
``MAX_MODULUS = 2**64``.  A larger one raises ``ValueError``
through ``check_limit``, which the command line reports as a one-line
``error:`` with exit code 2.
"""

#: The largest integer whose primality is decided.
MAX_MODULUS = 2**64
#: The most copies of wedge summands or loop factors an answer writes out, as
#: text or as --json lists; terms.join_blocks, their one writer, checks it.
MAX_COPIES = 10**6

#: The primes up to 61: the exponents k of the k-th root tests (2**64 is
#: no proper power above the 61st).
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
#: (bound, bases): these Miller–Rabin bases decide every n < bound; all
#: but the last bound are the least strong pseudoprimes to their bases, and
#: the twelve primes 2..37 cover every n <= MAX_MODULUS.
_MR_CUTOFFS = (
    (1_373_653, (2, 3)),
    (25_326_001, (2, 3, 5)),
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1_662_803)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (MAX_MODULUS + 1, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)

#: Below this, trial division decides primality faster than Miller–Rabin.
_TRIAL_PRIME_LIMIT = 2**12


def check_limit(n: int) -> None:
    """Raise ValueError for n above MAX_MODULUS."""
    if n > MAX_MODULUS:
        raise ValueError(f"{n} is larger than 2**64, the limit for primality tests and factoring")


def is_prime(n: int) -> bool:
    """Whether n is prime; n above MAX_MODULUS raises ValueError."""
    if n < _TRIAL_PRIME_LIMIT:
        if n < 2:
            return False
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1 if d == 2 else 2
        return True
    check_limit(n)
    for bound, bases in _MR_CUTOFFS:
        if n < bound:
            break
    for p in bases:
        if n % p == 0:
            return False
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    d = (n - 1) >> s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_power(n: int) -> tuple[int, int] | None:
    """Write n as p**r for a prime p, or return None.

    prime_power(9) == (3, 2); prime_power(12) is None; prime_power(1) is None.
    n above MAX_MODULUS raises ValueError.
    """
    if n < 2:
        return None
    if is_prime(n):
        return (n, 1)
    for k in _SMALL_PRIMES:
        if 2**k > n:
            break
        # n <= 2**64, so a float k-th root misses an exact one by far less than 1/2.
        b = round(n ** (1 / k))
        if b**k == n:
            pr = prime_power(b)
            return None if pr is None else (pr[0], pr[1] * k)
    return None
