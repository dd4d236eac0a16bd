"""The gcd rule table, verdict scopes, and the honesty of "unknown"."""

from math import gcd

import pytest

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


def test_contradictory_wider_row_is_not_consulted():
    # Over a non-spin M the all-primes k = 12 row of SU(3) decides every prime
    # before the parametric odd-primes k = 24 row behind it is reached: at 3 both
    # read the 3-part 3, and at 2 only the k = 12 row applies.
    v = classify(SU(3), NONSPIN_SPEC, 4, 8, primes=(2, 3))
    assert v.integral == UNKNOWN and v.local == {2: YES, 3: YES}  # the integral question stays open
    assert classify(SU(3), NONSPIN_SPEC, 1, 2, primes=(2, 3)).local == {2: NO, 3: YES}


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


@pytest.mark.parametrize("group,base,k,primes", [
    (SU(2), S4, 12, ()), (SU(2), CP2, 6, ()), (SU(3), S4, 24, ()),
    (SU(5), S4, 120, (2, 3, 5)), (SU(3), CP2, 12, (2, 3)), (Sp(2), S4, 40, (2, 5))])
def test_a_row_over_a_bare_base_parts_t_by_the_divisors_of_k(group, base, k, primes):
    # An integral row parts t in [0, k] by its integral verdict, and an all-primes row,
    # with no integral verdict past t = s, by its verdicts at the primes of k: one class
    # per divisor of k, each holding one gcd with k.
    def same(t, s):
        verdict = classify_base(group, base, t, s, primes)
        if not primes:
            return verdict.integral == YES
        assert verdict.integral == (YES if t == s else UNKNOWN)
        return all(v == YES for v in verdict.local.values())

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
    assert sorted(g.pop() for g in gcds) == [d for d in range(1, k + 1) if k % d == 0]


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
        assert rule.k % p and classify_base(group, S4, 1, 2, (p,)).local == {p: YES}  # p ∤ k


# --------------------------------------------------------------------------
# the law box: every verdict of a declared box, checked against laws of G_t


BOX_GROUPS = [SU(n) for n in range(2, 8)] + [Sp(n) for n in range(1, 4)] + [G2]
#: S^4, CP^2, and a manifold of each pi1 kind with each top-cell flag
BOX_BASES = [S4, CP2] + [ManifoldSpec(Pi1Descriptor(m, cyclic), 1, spin)
                         for m, cyclic in ((0, ()), (1, ()), (0, ((3, 1),)), (1, ((3, 1),)))
                         for spin in (True, False)]
#: 2-13, and 1 009, above every odd-prime bound in the box and dividing no k
BOX_PRIMES = (2, 3, 5, 7, 11, 13, 1009)
BOX_T = 60  # 0 <= t, s < 60


def v_p(t, p):
    """The exponent of p in t > 0."""
    return next(a for a in range(t) if t % p ** (a + 1))


@pytest.mark.parametrize("group", BOX_GROUPS, ids=lambda g: f"{g.family}({g.n})" if g.n else g.family)
def test_every_verdict_in_the_box_obeys_the_laws(group):
    # Each verdict is computed once, as (integral, local at each box prime), and the
    # laws are checked on the table: 1. at a prime dividing no row's k every decided
    # verdict is yes; 2. for p prime to u, t and u t agree at p (G_ut is G_t at p, Lang
    # 1973), so a decided answer at p depends on t only through v_p(t); 3. symmetry in
    # (t, s), t and -t agree, and on an integral row t and t + k agree; 4. an integral
    # yes is a yes at every prime; 5. G_t(M) splits as G_t(B) times factors free of t
    # (So, arXiv 1609.02486), with B = S^4 for a spin M and CP^2 otherwise, so a yes
    # over B is never a no over M.
    every_yes = (YES,) * (len(BOX_PRIMES) + 1)
    table = {}
    for base in BOX_BASES:
        ask = classify if isinstance(base, ManifoldSpec) else classify_base
        def answers(t, s):
            v = ask(group, base, t, s, BOX_PRIMES)
            return (v.integral, *[v.local[p] for p in BOX_PRIMES])
        grid = table[base] = [[answers(t, s) for s in range(BOX_T)] for t in range(BOX_T)]
        rule = ask(group, base, 0, 0).rule_used
        spin = base.sigma_f_trivial if isinstance(base, ManifoldSpec) else None
        ks = [row.k for row in _rows(group, MANIFOLD if spin is not None else base, spin)]
        for i, p in enumerate(BOX_PRIMES, 1):
            column = [a[i] for line in grid for a in line]
            assert NO not in column or any(k % p == 0 for k in ks), (1, group, base, p)
            for s in range(BOX_T):
                seen = {}
                for t in range(1, BOX_T):
                    a = grid[t][s][i]
                    assert a == UNKNOWN or seen.setdefault(v_p(t, p), a) == a, \
                        (2, group, base, t, s, p)
        assert all(grid[t][s] == grid[s][t] for t in range(BOX_T) for s in range(t)), \
            (3, group, base)
        assert all(grid[t][t] == every_yes for t in range(BOX_T)), (3, group, base)
        assert all(answers(-t, t) == every_yes for t in range(BOX_T)), (3, group, base)
        if rule is not None and rule.scope == INTEGRAL:
            assert all(grid[t][s][0] == grid[t + rule.k][s][0]
                       for t in range(BOX_T - rule.k) for s in range(BOX_T)), (3, group, base)
        assert all(a[0] != YES or a == every_yes for line in grid for a in line), \
            (4, group, base)
        if spin is not None:
            under = table[S4 if spin else CP2]
            assert not any(b == YES and a == NO for t in range(BOX_T) for s in range(BOX_T)
                           for a, b in zip(grid[t][s], under[t][s])), (5, group, base)
