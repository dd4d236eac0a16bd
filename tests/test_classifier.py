"""The gcd rule table, verdict scopes, and the honesty of "unknown"."""

import random
from math import gcd

import pytest

from conftest import random_spec
from gauge4 import (
    ClassRule,
    LieGroupSpec,
    ManifoldSpec,
    Pi1Descriptor,
    classify,
    classify_base,
    parse_group,
)
from gauge4.arith import is_prime
from gauge4.classifier import (
    ALL_PRIMES,
    CP2,
    INTEGRAL,
    MANIFOLD,
    NO,
    ODD_PRIMES,
    S4,
    UNKNOWN,
    YES,
    GroupParseError,
    _rows,
)
from gauge4.manifold import TRIVIAL_PI1

SU = lambda n: LieGroupSpec("SU", n)
Sp = lambda n: LieGroupSpec("Sp", n)
G2 = LieGroupSpec("G2")

SPIN_SPEC = ManifoldSpec(Pi1Descriptor(1), 1, True)
NONSPIN_SPEC = ManifoldSpec(Pi1Descriptor(1), 1, False)


def test_parse_group():
    assert parse_group("SU(2)") == SU(2)
    assert parse_group(" Sp(3) ") == Sp(3)
    assert parse_group("G2") == G2
    for bad in ["SU(1)", "Sp(0)", "G2(2)", "SO(3)", "SU", "su(2)"]:
        with pytest.raises(GroupParseError):
            parse_group(bad)


def test_lie_group_spec_names_a_bad_family_or_rank():
    with pytest.raises(GroupParseError, match="^G2 takes no rank$"):
        LieGroupSpec("G2", 2)
    with pytest.raises(GroupParseError, match="^unknown group family 'E'$"):
        LieGroupSpec("E", 8)


def base_rule(group, base):
    """The rule row reported for group over a bare base."""
    return classify_base(group, base, 1, 1).rule_used


def manifold_rule(group, spin):
    """The rule row reported for group over a manifold with the given top-cell flag."""
    return classify(group, SPIN_SPEC if spin else NONSPIN_SPEC, 1, 1).rule_used


def test_rule_table_over_the_sphere():
    assert base_rule(SU(2), S4) == ClassRule(12, INTEGRAL)
    assert base_rule(SU(3), S4) == ClassRule(24, INTEGRAL)
    assert base_rule(SU(5), S4) == ClassRule(120, ALL_PRIMES)
    assert base_rule(Sp(2), S4) == ClassRule(40, ALL_PRIMES)
    assert base_rule(G2, S4) == ClassRule(84, ODD_PRIMES)
    # parametric families where no sharper row exists
    assert base_rule(SU(4), S4) == ClassRule(60, ODD_PRIMES, odd_prime_bound=4)
    assert base_rule(SU(6), S4) == ClassRule(210, ODD_PRIMES, odd_prime_bound=6)
    assert base_rule(Sp(1), S4) == ClassRule(12, ODD_PRIMES, odd_prime_bound=2)
    assert base_rule(Sp(3), S4) == ClassRule(84, ODD_PRIMES, odd_prime_bound=6)


def test_rule_table_over_the_projective_plane():
    assert base_rule(SU(2), CP2) == ClassRule(6, INTEGRAL)
    assert base_rule(SU(3), CP2) == ClassRule(12, ALL_PRIMES)
    assert base_rule(SU(4), CP2) is None
    assert base_rule(Sp(2), CP2) is None
    assert base_rule(G2, CP2) is None


def test_rule_table_over_manifolds():
    assert manifold_rule(SU(2), spin=True) == ClassRule(12, INTEGRAL)
    assert manifold_rule(SU(2), spin=False) == ClassRule(6, INTEGRAL)
    assert manifold_rule(SU(3), spin=True) == ClassRule(24, INTEGRAL)
    assert manifold_rule(SU(3), spin=False) == ClassRule(12, ALL_PRIMES)
    for spin in (True, False):
        assert manifold_rule(SU(5), spin=spin) == ClassRule(120, ODD_PRIMES, odd_prime_bound=5)
        assert manifold_rule(Sp(2), spin=spin) == ClassRule(40, ODD_PRIMES)
        assert manifold_rule(G2, spin=spin) == ClassRule(84, ODD_PRIMES)
        assert manifold_rule(Sp(3), spin=spin) is None
        assert manifold_rule(Sp(1), spin=spin) is None


def test_rule_applicability_cutoff():
    rule = base_rule(Sp(3), S4)  # needs 2n = 6 <= (p-1)^2 + 1
    assert not rule.applies_at(2)
    assert not rule.applies_at(3)  # (3-1)^2 + 1 = 5 < 6
    assert rule.applies_at(5)  # 17 >= 6
    rule = base_rule(SU(4), S4)  # needs 4 <= (p-1)^2 + 1
    assert not rule.applies_at(2)
    assert rule.applies_at(3)  # 5 >= 4


# --------------------------------------------------------------------------
# verdicts


def test_integral_rule_yes_propagates_to_all_primes():
    v = classify(SU(2), SPIN_SPEC, 5, 17, primes=(2, 3, 7))
    assert v.integral == YES
    assert v.local == {2: YES, 3: YES, 7: YES}
    assert not v.stabilized


def test_integral_rule_no():
    v = classify(SU(2), NONSPIN_SPEC, 2, 3)
    assert v.integral == NO
    assert v.rule_used == ClassRule(6, INTEGRAL)


def test_integral_no_still_settles_odd_primes_via_wider_row():
    # gcd(12,2) != gcd(12,4), but gcd(6,2) == gcd(6,4): not equivalent
    # integrally, yet indistinguishable at odd primes.
    v = classify(SU(2), SPIN_SPEC, 2, 4, primes=(2, 3, 5))
    assert v.integral == NO
    assert v.local == {2: UNKNOWN, 3: YES, 5: YES}


def test_odd_scope_answers_odd_primes_only():
    spec = ManifoldSpec(Pi1Descriptor(0, ((5, 1),)), 0, True)
    v = classify(G2, spec, 0, 84, primes=(2, 5))
    assert v.integral == UNKNOWN
    assert v.local == {2: UNKNOWN, 5: YES}  # gcd(84,0) = 84 = gcd(84,84)
    v = classify(G2, spec, 1, 7, primes=(7,))
    assert v.local == {7: NO}  # gcd(84,1) = 1 != 7 = gcd(84,7)


def test_all_primes_scope_leaves_integral_open():
    v = classify(SU(3), NONSPIN_SPEC, 4, 8, primes=(2, 3))
    assert v.integral == UNKNOWN
    assert v.local == {2: YES, 3: YES}  # gcd(12,4) == gcd(12,8) == 4


def test_contradictory_wider_row_is_not_consulted():
    # The parametric SU(n) row at n = 3 (k = 24) would deny odd-prime
    # equivalence of G_4 and G_8 over a non-spin manifold; the sharper
    # all-primes row (k = 12) affirms it.  The wider row only refines when
    # its k divides the sharper one's, which 24 does not divide 12.
    # The guard itself: the rows governing SU(3) over a non-spin M are the
    # specific k = 12 row and nothing behind it.
    assert _rows(SU(3), MANIFOLD, spin=False) == (ClassRule(12, ALL_PRIMES),)
    v = classify(SU(3), NONSPIN_SPEC, 4, 8, primes=(3,))
    assert v.local[3] == YES
    assert gcd(24, 4) != gcd(24, 8)  # what the suppressed row would have said


def test_no_rule_means_unknown_but_reflexive():
    v = classify(Sp(3), SPIN_SPEC, 3, 7, primes=(2, 3))
    assert v.rule_used is None
    assert v.integral == UNKNOWN
    assert v.local == {2: UNKNOWN, 3: UNKNOWN}
    v = classify(Sp(3), SPIN_SPEC, 5, -5, primes=(2,))
    assert v.integral == YES
    assert v.local == {2: YES}


def test_mixed_pi1_marks_verdicts_stabilized():
    spec = ManifoldSpec(Pi1Descriptor(1, ((3, 1),)), 1, True)
    v = classify(SU(2), spec, 1, 11, primes=(3,))
    assert v.stabilized
    assert v.integral == YES  # gcd(12,1) == gcd(12,11)
    plain = classify(SU(2), SPIN_SPEC, 1, 11, primes=(3,))
    assert not plain.stabilized


def test_classify_base_uses_the_sphere_and_plane_tables():
    v = classify_base(SU(5), S4, 0, 120, primes=(2,))
    assert v.local[2] == YES  # the all-primes row reaches p = 2
    v = classify_base(SU(2), CP2, 1, 5, primes=(2,))
    assert v.integral == YES  # gcd(6,1) == gcd(6,5)
    with pytest.raises(ValueError):
        classify_base(SU(2), MANIFOLD, 0, 0)


def test_classify_rejects_non_primes():
    with pytest.raises(ValueError, match="not a prime"):
        classify(SU(2), SPIN_SPEC, 0, 0, primes=(4,))


def test_classify_at_large_primes(hang_guard):
    # A 61-bit prime gets the verdict of any other large odd prime.
    mersenne = 2**61 - 1
    for group, t, s in ((SU(2), 1, 2), (SU(3), 5, 7), (Sp(2), 3, 9)):
        big = classify(group, SPIN_SPEC, t, s, primes=(mersenne,))
        small = classify(group, SPIN_SPEC, t, s, primes=(1000003,))
        assert big.local[mersenne] == small.local[1000003]
        assert big.integral == small.integral
    with pytest.raises(ValueError, match="not a prime"):
        classify(SU(2), SPIN_SPEC, 0, 0, primes=(mersenne * 3,))
    with pytest.raises(ValueError, match="larger than 2\\*\\*64"):
        classify(SU(2), SPIN_SPEC, 0, 0, primes=(2**64 + 13,))


def test_classify_validates_the_spec():
    with pytest.raises(ValueError, match="even torsion prime"):
        classify(SU(2), ManifoldSpec(Pi1Descriptor(0, ((2, 1),)), 1, True), 0, 0)


# --------------------------------------------------------------------------
# gcd-class structure


def test_verdict_depends_only_on_gcd_class():
    k = 12  # SU(2) over a spin manifold
    rng = random.Random(41)
    for _ in range(200):
        t, s = rng.randint(-100, 100), rng.randint(-100, 100)
        v = classify(SU(2), SPIN_SPEC, t, s)
        expected = YES if gcd(k, abs(t)) == gcd(k, abs(s)) else NO
        assert v.integral == expected
        assert classify(SU(2), SPIN_SPEC, -t, s).integral == expected
        assert classify(SU(2), SPIN_SPEC, t + k, s).integral == expected
        assert classify(SU(2), SPIN_SPEC, s, t).integral == expected


def test_every_gcd_class_is_realized():
    # Over [0, k] classify's integral verdict parts t into one class per divisor of k:
    # every divisor appears as gcd(k, t), and t and s agree exactly when those agree.
    for group, spec, k in [(SU(2), SPIN_SPEC, 12), (SU(2), NONSPIN_SPEC, 6),
                           (SU(3), SPIN_SPEC, 24)]:
        classes = []
        for t in range(k + 1):
            for members in classes:
                if classify(group, spec, t, members[0]).integral == YES:
                    members.append(t)
                    break
            else:
                classes.append([t])
        assert len(classes) == len([d for d in range(1, k + 1) if k % d == 0])


def gcd_classes(k, same):
    """The classes into which same(t, s) parts t in [0, k], as the gcds of k with their members;
    each class must hold a single gcd."""
    classes = []
    for t in range(k + 1):
        for members in classes:
            if same(t, members[0]):
                members.append(t)
                break
        else:
            classes.append([t])
    gcds = [{gcd(k, t) for t in members} for members in classes]
    assert all(len(g) == 1 for g in gcds), gcds
    return sorted(g.pop() for g in gcds)


def divisors(k):
    return [d for d in range(1, k + 1) if k % d == 0]


def test_an_integral_row_over_a_bare_base_parts_t_by_the_divisors_of_k():
    for group, base, k in [(SU(2), S4, 12), (SU(2), CP2, 6), (SU(3), S4, 24)]:
        same = lambda t, s: classify_base(group, base, t, s).integral == YES
        assert gcd_classes(k, same) == divisors(k), (group, base)


def test_an_all_primes_row_parts_t_by_its_verdicts_at_the_primes_of_k():
    # No integral verdict past t = s, and one class per divisor of k from the local ones.
    for group, base, k, primes in [(SU(5), S4, 120, (2, 3, 5)), (SU(3), CP2, 12, (2, 3)),
                                   (Sp(2), S4, 40, (2, 5))]:
        def same(t, s):
            verdict = classify_base(group, base, t, s, primes)
            assert verdict.integral == (YES if t == s else UNKNOWN)
            return all(v == YES for v in verdict.local.values())
        assert gcd_classes(k, same) == divisors(k), (group, base)


def test_the_parametric_rows_carry_the_family_k():
    # k = n(n^2 - 1) for SU(n) over S^4 and over M, and k = 4n(2n + 1) for Sp(n) over
    # S^4, where the table holds no specific row; each gcd needs no factoring of k, so
    # a k past 2**64 is decided as one under it.
    for n in range(2, 22):
        k = n * (n * n - 1)
        if n not in (2, 3, 5):
            assert base_rule(SU(n), S4) == ClassRule(k, ODD_PRIMES, odd_prime_bound=n)
        if n >= 4:
            for spin in (True, False):
                assert manifold_rule(SU(n), spin) == ClassRule(k, ODD_PRIMES, odd_prime_bound=n)
    for n in range(1, 14):
        if n != 2:
            assert base_rule(Sp(n), S4) == ClassRule(
                4 * n * (2 * n + 1), ODD_PRIMES, odd_prime_bound=2 * n)
    for group in (SU(2_642_245), SU(2_642_246), Sp(1_518_500_249), Sp(1_518_500_250)):
        rule = classify_base(group, S4, 0, 0).rule_used
        p = next(p for p in range(3, 10**6, 2)
                 if is_prime(p) and rule.applies_at(p))  # the least odd prime it reaches
        assert p > 1000 and not rule.applies_at(3)
        assert (rule.k > 2**64) == (group in (SU(2_642_246), Sp(1_518_500_250)))
        assert classify_base(group, S4, rule.k, 0, (p,)).local == {p: YES}
        assert classify_base(group, S4, 1, 2, (p,)).local == {p: NO}  # every such k is even


def test_verdicts_never_contradict_reflexivity():
    rng = random.Random(42)
    groups = [SU(2), SU(3), SU(4), SU(5), Sp(1), Sp(2), Sp(3), G2]
    for _ in range(150):
        spec = random_spec(rng)
        group = rng.choice(groups)
        t = rng.randint(-50, 50)
        v = classify(group, spec, t, t, primes=(2, 3))
        assert v.integral == YES
        assert set(v.local.values()) == {YES}
