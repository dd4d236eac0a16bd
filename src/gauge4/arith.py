"""Exact integer arithmetic: primality, prime powers, factorization, divisor counts.

Moduli reach this module from user input (torsion orders such as
``Z/2305843009213693951``, primes for local verdicts) and from invariant
factors of Smith normal forms, so they can be large.  Every answer is
exact and deterministic:

- ``is_prime`` uses trial division for small n and above that the
  Miller–Rabin test with the bases that ``_MR_CUTOFFS`` lists for n's
  range, an explicit tuple per range, each proven to let no composite
  below its bound pass (Jaeschke 1993, with 2, 7, 61 below 4 759 123 141
  and 2, 13, 23, 1 662 803 below 1 122 004 669 633; Jiang–Deng 2014 for
  all twelve primes 2..37, past 3 * 10**23);
- ``prime_power`` tests n itself, then its integer k-th roots for primes k;
- ``factorize`` divides out primes below 2**10, then splits the cofactor
  with Pollard's rho in Brent's form, recognising prime powers on the way.

One cap keeps every call fast: an integer whose primality or factorization
must be decided is at most ``MAX_MODULUS = 2**64``.  A larger one raises
``ValueError``, which the command line reports as a one-line ``error:``
with exit code 2.
"""

from __future__ import annotations

from math import gcd

#: The largest integer whose primality or factorization is decided.
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
#: factorize divides out every prime below this before running rho.
_TRIAL_FACTOR_BOUND = 2**10


def _check_limit(n: int) -> None:
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
    _check_limit(n)
    bases = next(bases for bound, bases in _MR_CUTOFFS if n < bound)
    if any(n % p == 0 for p in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
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


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of 1 <= n <= MAX_MODULUS as {prime: exponent}, ascending."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    _check_limit(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n and d < _TRIAL_FACTOR_BOUND:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if d * d <= n:
        _split(n, out)
        return dict(sorted(out.items()))
    if n > 1:  # no factor up to its square root: a prime
        out[n] = out.get(n, 0) + 1
    return out


def _split(n: int, out: dict[int, int]) -> None:
    """Add the factorization of n > 1, free of primes below 2**10, to out."""
    pr = prime_power(n)
    if pr is not None:
        p, r = pr
        out[p] = out.get(p, 0) + r
        return
    d = _rho(n)
    _split(d, out)
    _split(n // d, out)


def _rho(n: int) -> int:
    """A proper factor of an odd composite n that is not a prime power.

    Pollard's rho with Brent's cycle search: x -> x*x + c mod n, with the
    differences multiplied 128 at a time before each gcd, and a step-by-step
    replay of the last batch when the gcd jumps to n.  c runs 1, 2, ...
    until a proper factor appears, so the result is deterministic.
    """
    batch = 128
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def prime_power_parts(n: int) -> tuple[int, ...]:
    """Split n >= 1 into its prime-power components, ascending.

    prime_power_parts(12) == (3, 4): Z/12 = Z/4 + Z/3 up to iso, and the
    parts are listed sorted by value.  prime_power_parts(1) == ().
    """
    return tuple(sorted(p**e for p, e in factorize(n).items()))


def divisor_count(n: int) -> int:
    """Number of positive divisors of n >= 1."""
    count = 1
    for e in factorize(n).values():
        count *= e + 1
    return count
