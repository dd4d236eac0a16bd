"""gcd tests for when two gauge groups over the same base are equivalent.

For the structure groups covered here, G_t and G_s over a fixed base are
homotopy equivalent — integrally or p-locally, depending on the row — if
and only if gcd(k, t) = gcd(k, s) for a single integer k attached to the
(group, base) pair.  This module stores those k-values and scopes and
answers equivalence queries, with three-valued honesty: a query outside a
row's scope comes back "unknown", never guessed.

Scopes.  An "integral" row decides genuine homotopy equivalence; an
"all-primes" row decides p-local equivalence at every prime; an
"odd-primes" row decides it at odd primes only, sometimes just at odd
primes p large enough for the group (n <= (p-1)^2 + 1 for SU(n), with 2n
in place of n for Sp(n)).  Some integral rows have a wider odd-primes row
behind them (same family, k dividing the integral k); when the integral
answer is "no", that row can still settle odd primes.  The refinement is
only trusted when its k divides the specific row's k, so a row pair that
disagrees is never merged.

Over a manifold with mixed free-product fundamental group the splitting
only exists after stabilization, so verdicts there compare the stabilized
gauge groups and say so.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd

from .arith import divisor_count, is_prime
from .manifold import ManifoldSpec, Pi1Kind, classify_pi1, validate

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

INTEGRAL = "integral"
ALL_PRIMES = "all-primes"
ODD_PRIMES = "odd-primes"

S4 = "S4"
CP2 = "CP2"
MANIFOLD = "manifold"


class GroupParseError(ValueError):
    """Unparseable structure-group name."""


@dataclass(frozen=True, slots=True)
class LieGroupSpec:
    """A structure group: SU(n), Sp(n), or the exceptional group G2."""

    family: str  # "SU" | "Sp" | "G2"
    n: int | None = None

    def __post_init__(self) -> None:
        if self.family == "SU":
            if self.n is None or self.n < 2:
                raise GroupParseError("SU(n) needs n >= 2")
        elif self.family == "Sp":
            if self.n is None or self.n < 1:
                raise GroupParseError("Sp(n) needs n >= 1")
        elif self.family == "G2":
            if self.n is not None:
                raise GroupParseError("G2 takes no rank")
        else:
            raise GroupParseError(f"unknown group family {self.family!r}")


_GROUP_RE = re.compile(r"^(SU|Sp)\((\d+)\)$")


def parse_group(text: str) -> LieGroupSpec:
    text = text.strip()
    if text == "G2":
        return LieGroupSpec("G2")
    m = _GROUP_RE.match(text)
    if not m:
        raise GroupParseError(f"bad group name: {text!r}")
    return LieGroupSpec(m.group(1), int(m.group(2)))


def render_group(group: LieGroupSpec) -> str:
    return "G2" if group.family == "G2" else f"{group.family}({group.n})"


@dataclass(frozen=True, slots=True)
class ClassRule:
    """One table row: gcd modulus k, scope, optional odd-prime cutoff.

    ``odd_prime_bound`` is the value that must satisfy
    bound <= (p-1)^2 + 1 for the row to apply at an odd prime p; None
    means every odd prime (irrelevant for integral/all-primes scopes).
    All rows are if-and-only-if characterizations.
    """

    k: int
    scope: str
    odd_prime_bound: int | None = None

    def applies_at(self, p: int) -> bool:
        """Does this row decide p-local equivalence at the prime p?"""
        if self.scope == INTEGRAL or self.scope == ALL_PRIMES:
            return True
        if p == 2:
            return False
        return self.odd_prime_bound is None or self.odd_prime_bound <= (p - 1) ** 2 + 1


_S4_SPECIFIC = {
    ("SU", 2): ClassRule(12, INTEGRAL),
    ("SU", 3): ClassRule(24, INTEGRAL),
    ("SU", 5): ClassRule(120, ALL_PRIMES),
    ("Sp", 2): ClassRule(40, ALL_PRIMES),
    ("G2", None): ClassRule(84, ODD_PRIMES),
}

_CP2_SPECIFIC = {
    ("SU", 2): ClassRule(6, INTEGRAL),
    ("SU", 3): ClassRule(12, ALL_PRIMES),
}

_MANIFOLD_SPIN = {
    ("SU", 2): ClassRule(12, INTEGRAL),
    ("SU", 3): ClassRule(24, INTEGRAL),
    ("Sp", 2): ClassRule(40, ODD_PRIMES),
    ("G2", None): ClassRule(84, ODD_PRIMES),
}

_MANIFOLD_NONSPIN = {
    ("SU", 2): ClassRule(6, INTEGRAL),
    ("SU", 3): ClassRule(12, ALL_PRIMES),
    ("Sp", 2): ClassRule(40, ODD_PRIMES),
    ("G2", None): ClassRule(84, ODD_PRIMES),
}


def _generic_rule(group: LieGroupSpec, base: str) -> ClassRule | None:
    """The parametric odd-primes family rows: SU(n) everywhere the table
    reaches, Sp(n) on S^4 only."""
    if group.family == "SU" and base in (S4, MANIFOLD):
        n = group.n
        return ClassRule(n * (n * n - 1), ODD_PRIMES, odd_prime_bound=n)
    if group.family == "Sp" and base == S4:
        n = group.n
        return ClassRule(4 * n * (2 * n + 1), ODD_PRIMES, odd_prime_bound=2 * n)
    return None


def _specific_rule(group: LieGroupSpec, base: str, spin: bool | None) -> ClassRule | None:
    key = (group.family, group.n)
    if base == S4:
        return _S4_SPECIFIC.get(key)
    if base == CP2:
        return _CP2_SPECIFIC.get(key)
    if base == MANIFOLD:
        if spin is None:
            raise ValueError("manifold rules need the spin flag")
        return (_MANIFOLD_SPIN if spin else _MANIFOLD_NONSPIN).get(key)
    raise ValueError(f"unknown base {base!r}")


def rule_for(group: LieGroupSpec, base: str, spin: bool | None = None) -> ClassRule | None:
    """The table row governing (group, base), specific rows first.

    base is "S4", "CP2", or "manifold" (the latter needs spin=True/False).
    Returns None when the table has nothing to say.
    """
    specific = _specific_rule(group, base, spin)
    if specific is not None:
        return specific
    return _generic_rule(group, base)


def _refinement(group: LieGroupSpec, base: str, spin: bool | None) -> ClassRule | None:
    """The generic row behind a specific one, if consistent with it."""
    specific = _specific_rule(group, base, spin)
    if specific is None:
        return None
    generic = _generic_rule(group, base)
    if generic is None or specific.k % generic.k != 0:
        return None
    return generic


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Answer to "is G_t equivalent to G_s?", integrally and per prime.

    ``integral`` and each ``local[p]`` are "yes" / "no" / "unknown".
    ``stabilized`` marks verdicts that compare the gauge groups after
    stabilizing the manifold (mixed free-product fundamental group).
    """

    integral: str
    local: dict[int, str]
    rule_used: ClassRule | None
    stabilized: bool = False


def _decide(rule: ClassRule | None, refinement: ClassRule | None,
            t: int, s: int, primes: tuple[int, ...], stabilized: bool) -> EquivalenceVerdict:
    # gcd with 0 is the modulus itself, so t = 0 sits in the class of k.
    same = rule is not None and gcd(rule.k, abs(t)) == gcd(rule.k, abs(s))
    reflexive = abs(t) == abs(s)

    if reflexive:
        integral = YES
    elif rule is not None and rule.scope == INTEGRAL:
        integral = YES if same else NO
    else:
        integral = UNKNOWN

    local: dict[int, str] = {}
    for p in primes:
        if integral == YES:
            local[p] = YES
        elif rule is not None and rule.scope != INTEGRAL and rule.applies_at(p):
            local[p] = YES if same else NO
        elif rule is not None and rule.scope == INTEGRAL and refinement is not None \
                and refinement.applies_at(p):
            ref_same = gcd(refinement.k, abs(t)) == gcd(refinement.k, abs(s))
            local[p] = YES if ref_same else NO
        else:
            local[p] = UNKNOWN
    return EquivalenceVerdict(integral, local, rule, stabilized)


def _check_primes(primes) -> tuple[int, ...]:
    out = sorted(set(primes))
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
    validate(spec)
    stabilized = classify_pi1(spec.pi1) is Pi1Kind.MIXED
    spin = spec.sigma_f_trivial
    rule = rule_for(group, MANIFOLD, spin)
    refinement = _refinement(group, MANIFOLD, spin)
    return _decide(rule, refinement, t, s, _check_primes(primes), stabilized)


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
    rule = rule_for(group, base)
    refinement = _refinement(group, base, None)
    return _decide(rule, refinement, t, s, _check_primes(primes), False)


def count_types(group: LieGroupSpec, base: str, spin: bool | None = None) -> int | None:
    """How many distinct gauge groups the rule allows over this base.

    The gcd class of t against k takes one value per divisor of k, so this
    is the divisor count; None when no rule covers the pair.
    """
    rule = rule_for(group, base, spin)
    return None if rule is None else divisor_count(rule.k)
