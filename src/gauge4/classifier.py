"""gcd tests for when two gauge groups over the same base are equivalent.

For the structure groups covered here, G_t and G_s over a fixed base are
homotopy equivalent — integrally or p-locally, depending on the row — if
and only if gcd(k, t) = gcd(k, s) for a single integer k attached to the
(group, base) pair; at a prime p only the p-parts of those gcds count, as
G_ut is p-locally G_t for every u prime to p (the boundary map of G_t is t
times that of G_1, Lang 1973).  This module stores those k-values and
scopes in one table and answers equivalence queries, with three-valued
honesty: a query outside every row's scope comes back "unknown", never
guessed.

Scopes.  An "integral" row decides genuine homotopy equivalence; an
"all-primes" row decides p-local equivalence at every prime; an
"odd-primes" row decides it at odd primes only, sometimes just at odd
primes p large enough for the group (n <= (p-1)^2 + 1 for SU(n), with 2n
in place of n for Sp(n)).

Rows.  A query is governed by an ordered list of rows, most specific
first: the table's specific row for (group, base), if any, then the
parametric odd-primes row of the family (SU(n) over S^4 and M, Sp(n) over
S^4).  The first row gives the integral verdict and is the rule reported;
each prime is decided by the first row that is not integral and reaches
it, so when the integral answer is "no" the wider row behind it can still
settle odd primes.

Over a manifold with mixed free-product fundamental group the splitting
only exists after stabilization, so verdicts there compare the stabilized
gauge groups and say so.
"""

from math import gcd

from .arith import is_prime
from .manifold import ManifoldSpec, Pi1Kind, classify_pi1
from .terms import CP2, S4
from .value import Value, decimal, digits, integer

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

INTEGRAL = "integral"
ALL_PRIMES = "all-primes"
ODD_PRIMES = "odd-primes"

MANIFOLD = "manifold"


class GroupParseError(ValueError):
    """Unparseable structure-group name."""


class LieGroupSpec(Value):
    """A structure group: SU(n), Sp(n), or the exceptional group G2."""

    __slots__ = ("family", "n")

    def __init__(self, family: str, n: int | None = None) -> None:
        if n is not None:
            integer(n, "group rank n", error=GroupParseError)
        if family == "SU":
            if n is None or n < 2:
                raise GroupParseError("SU(n) needs n >= 2")
        elif family == "Sp":
            if n is None or n < 1:
                raise GroupParseError("Sp(n) needs n >= 1")
        elif family == "G2":
            if n is not None:
                raise GroupParseError("G2 takes no rank")
        else:
            raise GroupParseError(f"unknown group family {family!r}")
        self._set(family, n)


def parse_group(text: str) -> LieGroupSpec:
    text = text.strip()
    if text == "G2":
        return LieGroupSpec("G2")
    family, _, n = text.partition("(")  # SU(n) or Sp(n)
    if family not in ("SU", "Sp") or n[-1:] != ")" or not digits(n[:-1]):
        raise GroupParseError(f"bad group name: {text!r}")
    return LieGroupSpec(family, decimal(n[:-1], "group rank n", GroupParseError))


class ClassRule(Value):
    """One table row: gcd modulus k, scope, optional odd-prime cutoff.

    ``odd_prime_bound`` is the value that must satisfy
    bound <= (p-1)^2 + 1 for the row to apply at an odd prime p; None
    means every odd prime (irrelevant for integral/all-primes scopes).
    All rows are if-and-only-if characterizations.
    """

    __slots__ = ("k", "scope", "odd_prime_bound")

    def __init__(self, k: int, scope: str, odd_prime_bound: int | None = None) -> None:
        self._set(k, scope, odd_prime_bound)

    def applies_at(self, p: int) -> bool:
        """Does this row decide p-local equivalence at the prime p?"""
        if self.scope == INTEGRAL or self.scope == ALL_PRIMES:
            return True
        if p == 2:
            return False
        return self.odd_prime_bound is None or self.odd_prime_bound <= (p - 1) ** 2 + 1


#: The specific rows, keyed by (family, n, base); a manifold row's base is
#: (MANIFOLD, spin).  The manifold rows are written out, not derived from
#: the base rows, because the transfer to M is not uniform: Sp(2) narrows
#: from all primes to odd primes, SU(5) keeps no specific row, and SU(3)
#: over a nonspin M stays all-primes.
_ROWS = {
    ("SU", 2, S4): ClassRule(12, INTEGRAL),
    ("SU", 3, S4): ClassRule(24, INTEGRAL),
    ("SU", 5, S4): ClassRule(120, ALL_PRIMES),
    ("Sp", 2, S4): ClassRule(40, ALL_PRIMES),
    ("G2", None, S4): ClassRule(84, ODD_PRIMES),
    ("SU", 2, CP2): ClassRule(6, INTEGRAL),
    ("SU", 3, CP2): ClassRule(12, ALL_PRIMES),
    ("SU", 2, (MANIFOLD, True)): ClassRule(12, INTEGRAL),
    ("SU", 3, (MANIFOLD, True)): ClassRule(24, INTEGRAL),
    ("Sp", 2, (MANIFOLD, True)): ClassRule(40, ODD_PRIMES),
    ("G2", None, (MANIFOLD, True)): ClassRule(84, ODD_PRIMES),
    ("SU", 2, (MANIFOLD, False)): ClassRule(6, INTEGRAL),
    ("SU", 3, (MANIFOLD, False)): ClassRule(12, ALL_PRIMES),
    ("Sp", 2, (MANIFOLD, False)): ClassRule(40, ODD_PRIMES),
    ("G2", None, (MANIFOLD, False)): ClassRule(84, ODD_PRIMES),
}


def _rows(group: LieGroupSpec, base: str, spin: bool | None) -> tuple[ClassRule, ...]:
    """The rows governing (group, base), most specific first; base is S4, CP2,
    or MANIFOLD with spin the manifold's top-cell flag.

    The specific row, if any, then the parametric odd-primes row (SU(n) on
    S^4 and on M, Sp(n) on S^4).
    """
    key = (MANIFOLD, spin) if base == MANIFOLD else base
    specific = _ROWS.get((group.family, group.n, key))
    n = group.n
    if group.family == "SU" and base != CP2:
        generic = ClassRule._as_given(n * (n * n - 1), ODD_PRIMES, n)
    elif group.family == "Sp" and base == S4:
        generic = ClassRule._as_given(4 * n * (2 * n + 1), ODD_PRIMES, 2 * n)
    else:
        return () if specific is None else (specific,)
    return (generic,) if specific is None else (specific, generic)


class EquivalenceVerdict(Value):
    """Answer to "is G_t equivalent to G_s?", integrally and per prime.

    ``integral`` and each ``local[p]`` are "yes" / "no" / "unknown".
    ``stabilized`` marks verdicts that compare the gauge groups after
    stabilizing the manifold (mixed free-product fundamental group).
    """

    __slots__ = ("integral", "local", "rule_used", "stabilized")

    def __init__(self, integral: str, local: dict[int, str], rule_used: ClassRule | None,
                 stabilized: bool = False) -> None:
        self._set(integral, local, rule_used, stabilized)


def _decide(rows: tuple[ClassRule, ...], t: int, s: int, primes: tuple[int, ...],
            stabilized: bool) -> EquivalenceVerdict:
    # gcd with 0 is the modulus itself, so t = 0 sits in the class of k.
    t, s = abs(integer(t, "bundle class t")), abs(integer(s, "bundle class s"))
    rule = rows[0] if rows else None
    if t == s:
        integral = YES
    elif rule is not None and rule.scope == INTEGRAL:
        integral = YES if gcd(rule.k, t) == gcd(rule.k, s) else NO
    else:
        integral = UNKNOWN
    if integral == YES:
        return EquivalenceVerdict._as_given(YES, dict.fromkeys(primes, YES), rule, stabilized)

    # An integral "no" settles no prime: the first wider row that reaches p does.
    local: dict[int, str] = {}
    for p in primes:
        local[p] = UNKNOWN
        for row in rows:
            if row.scope != INTEGRAL and row.applies_at(p):
                k = 1  # the p-part of row.k: G_ut is G_t at p for p prime to u
                while row.k % (k * p) == 0:
                    k *= p
                local[p] = YES if gcd(k, t) == gcd(k, s) else NO
                break
    return EquivalenceVerdict._as_given(integral, local, rule, stabilized)


def _check_primes(primes) -> tuple[int, ...]:
    out = sorted({integer(p, "prime") for p in primes})
    for p in out:
        if not is_prime(p):
            raise ValueError(f"not a prime: {p}")
    return tuple(out)


def classify(
    group: LieGroupSpec,
    spec: ManifoldSpec,
    t: int,
    s: int,
    primes=(),
) -> EquivalenceVerdict:
    """Compare G_t(M) and G_s(M) for the manifold described by spec.

    Locality questions are answered at each requested prime.  When pi1 is
    a mixed free product the manifold is compared after stabilization and
    the verdict says so.
    """
    stabilized = classify_pi1(spec.pi1) == Pi1Kind.MIXED
    return _decide(_rows(group, MANIFOLD, spec.sigma_f_trivial), t, s, _check_primes(primes),
                   stabilized)


def classify_base(
    group: LieGroupSpec,
    base: str,
    t: int,
    s: int,
    primes=(),
) -> EquivalenceVerdict:
    """Compare G_t and G_s over a bare base space, "S4" or "CP2"."""
    if base not in (S4, CP2):
        raise ValueError(f"base must be S4 or CP2, got {base!r}")
    return _decide(_rows(group, base, None), t, s, _check_primes(primes), False)

