"""The splitting engine: closed forms per fundamental-group shape, the
wedge -> gauge correspondence, rendering, and the homology cross-check."""

import random
import re

import pytest

from conftest import ODD_PRIMES, expand, line_events, random_spec
from gauge4 import (
    Decomposition,
    DecompositionError,
    GaugeExpr,
    LoopFactor,
    ManifoldSpec,
    Moore,
    Pi1Descriptor,
    Pi1Kind,
    Sphere,
    SuspCP2,
    TermError,
    Wedge,
    classify_pi1,
    decompose,
    gauge_from_suspension,
    homology_of_manifold,
    homology_of_term,
    manifold,
    map_space,
    mixed_decomposition,
    render,
    render_decomposition,
    stabilize,
    suspend,
    wedge,
)
from gauge4 import decomposer
from gauge4.cli import _splitting_json
from gauge4.decomposer import splitting_parts
from gauge4.manifold import PI1_KINDS, TRIVIAL_PI1
from gauge4.terms import GAUGE_BASE, SYMBOLIC, _atom_key, blocks, loop_pair, normalize

S4_ONLY = ManifoldSpec()  # trivial pi1, b2 = 0, trivial flag


def render_suspension_half(dec):
    return "".join(splitting_parts(dec, False))


def render_gauge_half(dec):
    return "".join(splitting_parts(dec, True)).partition("; ")[2]


def O(k, q=None):
    return LoopFactor(k, q)


def test_simply_connected_spin():
    dec = decompose(ManifoldSpec(TRIVIAL_PI1, 2, True), 3)
    assert dec.case_used is Pi1Kind.TRIVIAL
    assert dec.suspension == wedge([Sphere(5), Sphere(3), Sphere(3)])
    assert dec.gauge == GaugeExpr("S4", 3, ((O(2), 2),))
    assert dec.stabilization == 0


def test_simply_connected_non_spin():
    dec = decompose(ManifoldSpec(TRIVIAL_PI1, 3, False), 1)
    assert dec.suspension == wedge([SuspCP2(), Sphere(3), Sphere(3)])
    assert dec.gauge == GaugeExpr("CP2", 1, ((O(2), 2),))


def test_sphere_itself_is_the_bare_base():
    dec = decompose(S4_ONLY, 6)
    assert dec.suspension == Sphere(5)
    assert dec.gauge == GaugeExpr("S4", 6, ())


def test_free_case():
    dec = decompose(ManifoldSpec(Pi1Descriptor(1), 0, True), 2)
    assert dec.case_used is Pi1Kind.FREE
    assert dec.suspension == wedge([Sphere(5), Sphere(4), Sphere(2)])
    assert dec.gauge == GaugeExpr("S4", 2, ((O(3), 1), (O(1), 1)))

    dec = decompose(ManifoldSpec(Pi1Descriptor(2), 1, True), 0)
    assert dec.suspension == wedge(
        [Sphere(5), Sphere(4), Sphere(4), Sphere(3), Sphere(2), Sphere(2)]
    )
    assert dec.gauge == GaugeExpr("S4", 0, ((O(3), 2), (O(2), 1), (O(1), 2)))


def test_cyclic_case():
    dec = decompose(ManifoldSpec(Pi1Descriptor(0, ((3, 2),)), 1, True), 2)
    assert dec.case_used is Pi1Kind.CYCLIC
    assert dec.suspension == wedge([Sphere(5), Moore(4, 9), Sphere(3), Moore(3, 9)])
    assert dec.gauge == GaugeExpr("S4", 2, ((O(3, 9), 1), (O(2), 1), (O(2, 9), 1)))

    dec = decompose(ManifoldSpec(Pi1Descriptor(0, ((3, 1),)), 2, False), 4)
    assert dec.suspension == wedge([SuspCP2(), Moore(4, 3), Sphere(3), Moore(3, 3)])
    assert dec.gauge == GaugeExpr("CP2", 4, ((O(3, 3), 1), (O(2), 1), (O(2, 3), 1)))


def test_mixed_case_symbolic_by_default():
    spec = ManifoldSpec(Pi1Descriptor(1, ((3, 1),)), 1, True)
    dec = decompose(spec, 7)
    assert dec.case_used is Pi1Kind.MIXED
    assert dec.stabilization == SYMBOLIC
    assert dec.gauge.stabilization == SYMBOLIC
    # the stored wedge/product keep only the d-independent part
    assert dec.suspension == wedge(
        [Sphere(5), Sphere(4), Moore(4, 3), Sphere(3), Moore(3, 3), Sphere(2)]
    )
    assert dec.gauge.blocks == ((O(3), 1), (O(3, 3), 1), (O(2), 1), (O(2, 3), 1), (O(1), 1))


def test_mixed_case_concrete_d():
    spec = ManifoldSpec(Pi1Descriptor(1, ((3, 1),)), 1, True)
    dec = decompose(spec, 7, d=2)
    assert dec.stabilization == 2
    assert dec.suspension == wedge(
        [Sphere(5), Sphere(4), Moore(4, 3)]
        + [Sphere(3)] * 5
        + [Moore(3, 3), Sphere(2)]
    )
    assert dec.gauge == GaugeExpr(
        "S4", 7, ((O(3), 1), (O(3, 3), 1), (O(2), 5), (O(2, 3), 1), (O(1), 1)), 2
    )
    with pytest.raises(TermError, match="^stabilization count must be >= 0, got -1$"):
        decompose(spec, 7, d=-1)


def test_mixed_case_non_spin_spends_a_two_cell():
    spec = ManifoldSpec(Pi1Descriptor(0, ((3, 1), (5, 1))), 1, False)
    dec = decompose(spec, 0, d=1)
    assert dec.suspension == wedge(
        [SuspCP2(), Moore(4, 3), Moore(4, 5)]
        + [Sphere(3)] * 2  # b2 - 1 + 2d
        + [Moore(3, 3), Moore(3, 5)]
    )


def test_dispatch_covers_all_kinds():
    rng = random.Random(31)
    seen = set()
    for _ in range(200):
        spec = random_spec(rng)
        dec = decompose(spec)
        kind = classify_pi1(spec.pi1)
        seen.add(kind)
        # one spelling of symbolic d: SYMBOLIC, None and the default agree
        assert decompose(spec, d=SYMBOLIC) == decompose(spec, d=None) == dec
        assert dec.case_used is kind
        assert (dec.gauge.base == "S4") == spec.sigma_f_trivial
    assert seen == set(PI1_KINDS)


def test_decomposition_blocks_are_one_normal_form():
    dec = Decomposition(
        Wedge(
            (
                (Moore(3, 9), 1),
                (Sphere(2), 1),
                (Moore(3, 5), 1),
                (Sphere(5), 1),
                (Moore(3, 9), 1),
                (Sphere(4), 0),
            )
        ),
        2,
        0,
        Pi1Kind.MIXED,
    )
    # equal summands merged, empty blocks dropped, display order
    assert dec.blocks == (
        (Sphere(5), 1),
        (Moore(3, 5), 1),
        (Moore(3, 9), 2),
        (Sphere(2), 1),
    )
    assert dec.suspension == Wedge(dec.blocks)
    assert Decomposition(dec.suspension, 2, 0, Pi1Kind.MIXED) == dec
    assert expand(dec.blocks) == [Sphere(5), Moore(3, 5), Moore(3, 9), Moore(3, 9), Sphere(2)]
    assert dec.gauge == GaugeExpr("S4", 2, ((O(2, 5), 1), (O(2, 9), 2), (O(1), 1)))
    with pytest.raises(TermError, match="^block count must be >= 0, got -1$"):
        Decomposition(Wedge(((Sphere(5), 1), (Sphere(3), -1))), 0, 0, Pi1Kind.TRIVIAL)


def test_decomposition_is_checked_whole_where_it_is_built():
    # Each wedge that is no splitting, refused with one line by Decomposition and by
    # gauge_from_suspension, which reads the wedge through it.  A summand outside
    # map_space's domain, above the one base or below it, is the fault named.
    one_base = "a splitting needs exactly one base summand"
    outside = "summand outside the correspondence: no loop factor for summand: {!r}".format
    for bad, reason in [
        (((Sphere(3), 2),), one_base),
        (((Sphere(5), 1), (SuspCP2(), 1)), one_base),
        (((Sphere(5), 2),), one_base),
        ((), one_base),
        (((Sphere(5), 1), (Sphere(1), 1)), outside(Sphere(1))),
        (((Sphere(5), 1), (Moore(2, 3), 1)), outside(Moore(2, 3))),
        (((Sphere(6), 1), (Sphere(5), 1)), outside(Sphere(6))),
        (((Moore(5, 3), 1), (SuspCP2(), 1)), outside(Moore(5, 3))),
        (((Moore(6, 3), 1), (Sphere(5), 1)), outside(Moore(6, 3))),
    ]:
        for build in (lambda: Decomposition(Wedge(bad), 0, 0, Pi1Kind.TRIVIAL),
                      lambda: gauge_from_suspension(Wedge(bad), 0)):
            with pytest.raises(DecompositionError, match=f"^{re.escape(reason)}$"):
                build()
    # a bad case_used once raised an AttributeError in the --json writer
    with pytest.raises(DecompositionError, match="^case_used must be a Pi1Kind, got 'banana'$"):
        Decomposition(Sphere(5), 0, 0, "banana")


def _maps(atom):
    """Whether atom is in map_space's domain."""
    try:
        map_space(atom)
    except TermError:
        return False
    return True


def test_map_space_domain_is_an_interval_of_the_summand_order():
    # So Decomposition checks only the first and last blocks past the base:
    # over seeded wedges it builds exactly when every such block maps.
    atoms = [Sphere(n) for n in range(1, 8)] + [SuspCP2()]
    atoms += [Moore(n, q) for n in range(2, 7) for q in (2, 3, 9, 25)]
    order = sorted(atoms, key=_atom_key)
    inside = [i for i, atom in enumerate(order) if loop_pair(atom) is not None]
    assert inside == list(range(inside[0], inside[-1] + 1)) and len(inside) == 11
    # map_space maps exactly the rule's domain, and both bases sort before it
    assert [atom for atom in atoms if loop_pair(atom) is not None] == list(filter(_maps, atoms))
    assert max(map(order.index, GAUGE_BASE)) < inside[0]
    rng, seen = random.Random(2486), set()
    for _ in range(4000):
        base = rng.choice((Sphere(5), SuspCP2()))
        rest = [(rng.choice(atoms), rng.randint(1, 3)) for _ in range(rng.randint(0, 4))]
        blocks = Wedge([(base, 1), *rest]).blocks
        whole = blocks[0] == (base, 1) and all(_maps(atom) for atom, _ in blocks[1:])
        try:
            built = Decomposition(Wedge(blocks), 0, 0, Pi1Kind.MIXED).blocks == blocks
        except DecompositionError as exc:
            built = False
            seen.add(str(exc).partition(":")[0])
        assert built == whole, blocks
        seen.add(built)
    assert seen == {True, False, "a splitting needs exactly one base summand",
                    "summand outside the correspondence"}


def _scanned_line(susp):
    """The line the check that scanned every block for its bases refused susp with,
    or None where it built: one base of count 1, then the two ends of the rest."""
    parts = blocks(normalize(susp))
    bases = [block for block in parts if block[0] in GAUGE_BASE]
    if len(bases) != 1 or bases[0][1] != 1:
        return "a splitting needs exactly one base summand"
    rest = parts[1:] if parts[0] == bases[0] else parts
    try:
        for atom, _ in rest[:1] + rest[-1:]:
            map_space(atom)
    except TermError as exc:
        return f"summand outside the correspondence: {exc}"
    return None


def _built_line(susp):
    try:
        Decomposition(susp, 0, 0, Pi1Kind.MIXED)
    except DecompositionError as exc:
        return str(exc)
    return None


S5, SCP2 = Sphere(5), SuspCP2()
HAND_PICKED_WEDGES = {
    "the empty wedge": (),
    "a bare base": ((S5, 1),),
    "a base and the domain's two ends": ((SCP2, 1), (Sphere(4), 2), (Sphere(2), 1)),
    "two bases": ((S5, 1), (SCP2, 1), (Sphere(3), 1)),
    "two bases, nothing else": ((S5, 1), (SCP2, 1)),
    "a base of count 2": ((S5, 2), (Sphere(3), 1)),
    "a base of count 2 and a second base": ((S5, 2), (SCP2, 1)),
    "a base that is not first": ((Sphere(6), 1), (S5, 1), (Sphere(3), 1)),
    "P^5(q) between S^5 and SCP^2, after S^5": ((S5, 1), (Moore(5, 3), 1)),
    "P^5(q) between S^5 and SCP^2, before SCP^2": ((Moore(5, 3), 1), (SCP2, 1)),
    "P^5(q) between both bases": ((S5, 1), (Moore(5, 9), 1), (SCP2, 1)),
    "a summand above S^5": ((S5, 1), (Moore(6, 3), 2)),
    "a summand below S^2 last": ((SCP2, 1), (Sphere(3), 1), (Sphere(1), 1)),
    "a summand below S^2 alone": ((S5, 1), (Moore(2, 5), 1)),
    "no base, all in the domain": ((Sphere(4), 1), (Moore(3, 3), 1)),
    "no base, a summand outside": ((Sphere(6), 1), (Sphere(2), 1)),
}


@pytest.mark.parametrize("name", sorted(HAND_PICKED_WEDGES))
def test_one_pass_check_refuses_what_the_full_scan_did_hand_picked(name):
    susp = Wedge(HAND_PICKED_WEDGES[name])
    assert _built_line(susp) == _scanned_line(susp)


def test_one_pass_check_refuses_what_the_full_scan_did_at_random():
    # Bases of count 1 or 2, anywhere, beside summands inside the domain and
    # outside it on both sides; the one-pass check builds exactly where the
    # full scan did and refuses with the same line.
    atoms = [Sphere(n) for n in range(1, 8)] + [SCP2]
    atoms += [Moore(n, q) for n in range(2, 7) for q in (3, 9, 25)]
    rng, seen = random.Random(1609), {}
    for _ in range(3000):
        parts = [(rng.choice(atoms), rng.choice((1, 1, 1, 2))) for _ in range(rng.randint(0, 5))]
        if rng.random() < 0.6:
            parts.append((rng.choice((S5, SCP2)), 1))
        susp = normalize(Wedge(parts))
        line = _scanned_line(susp)
        assert _built_line(susp) == line, susp
        key = line and line.partition(":")[0]
        seen[key] = seen.get(key, 0) + 1
    assert set(seen) == {None, "a splitting needs exactly one base summand",
                         "summand outside the correspondence"}
    assert min(seen.values()) > 300, seen


#: Specs by (pi1, b2, spin, d), each with the Moore spaces one decompose builds:
#: a splitting's spheres and SCP^2 are the constants of terms, so only a cyclic
#: factor's summands, P^3(q) and P^4(q), are built, once each.  Neither
#: Decomposition, which checks the ends of a splitting by their sort keys, nor
#: the text or --json of either half, written from the summands, builds a loop factor.
CONSTRUCTION_COUNTS = [
    ("1", 0, True, None, 0),
    ("1", 4, False, None, 0),
    ("Z*Z", 3, False, None, 0),
    ("Z*Z*Z", 0, True, None, 0),
    ("Z/9", 2, True, None, 2),
    ("Z/3*Z/5", 1, False, None, 4),
    ("Z/3*Z/5*Z/3", 0, True, 2, 4),
    ("Z*Z/3", 2, True, None, 2),
    ("Z*Z*Z/3*Z/5*Z/7", 5, False, 0, 6),
    ("Z*Z/3*Z/5*Z/25", 0, True, 3, 6),
]


@pytest.mark.parametrize("pi1,b2,spin,d,moore", CONSTRUCTION_COUNTS)
def test_one_query_builds_only_the_atoms_of_its_cyclic_factors(monkeypatch, pi1, b2, spin, d,
                                                              moore):
    spec = manifold(pi1, b2, spin=spin)
    built = dict.fromkeys(("Sphere", "SuspCP2", "Moore", "LoopFactor"), 0)
    for cls in (Sphere, SuspCP2, Moore, LoopFactor):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__):
            built[_name] += 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    dec = decompose(spec, 1, d=d)
    render_decomposition(dec)
    "".join(_splitting_json(dec, True))
    assert built == {"Sphere": 0, "SuspCP2": 0, "Moore": moore, "LoopFactor": 0}


def test_decomposition_rejects_a_bad_stabilization():
    susp = Wedge(((Sphere(5), 1), (Sphere(3), 2)))
    with pytest.raises(TermError, match="^stabilization count must be an integer, got 'foo'$"):
        Decomposition(susp, 1, "foo", Pi1Kind.MIXED)
    with pytest.raises(TermError, match="^stabilization count must be >= 0, got -3$"):
        Decomposition(susp, 1, -3, Pi1Kind.MIXED)
    for stab in (0, 2, SYMBOLIC):
        assert Decomposition(susp, 1, stab, Pi1Kind.MIXED).stabilization == stab


MIXED_SPEC = ManifoldSpec(Pi1Descriptor(1, ((3, 1),)), 1, True)

#: Every entry point that takes a stabilization count, each with a d to check.
STABILIZATION_ENTRY_POINTS = {
    "decompose": lambda d: decompose(MIXED_SPEC, d=d),
    "decompose on a cyclic pi1": lambda d: decompose(ManifoldSpec(Pi1Descriptor(0, ((3, 1),)), 1), d=d),
    "mixed_decomposition": lambda d: mixed_decomposition(MIXED_SPEC, d=d),
    "stabilize": lambda d: stabilize(MIXED_SPEC, d),
    "Decomposition": lambda d: Decomposition(Wedge(((Sphere(5), 1),)), 0, d, Pi1Kind.MIXED),
    "GaugeExpr": lambda d: GaugeExpr("S4", 0, (), d),
}


@pytest.mark.parametrize("entry", sorted(STABILIZATION_ENTRY_POINTS))
@pytest.mark.parametrize(
    "d,message",
    [
        (True, "^stabilization count must be an integer, got True$"),
        (1.5, "^stabilization count must be an integer, got 1.5$"),
        ("foo", "^stabilization count must be an integer, got 'foo'$"),
        (-1, "^stabilization count must be >= 0, got -1$"),
    ],
)
def test_every_entry_point_rejects_a_bad_stabilization_with_term_error(entry, d, message):
    with pytest.raises(TermError, match=message):
        STABILIZATION_ENTRY_POINTS[entry](d)


@pytest.mark.parametrize("spec,d", [(MIXED_SPEC, 2), (MIXED_SPEC, SYMBOLIC), (S4_ONLY, 3)],
                         ids=["mixed, d=2", "mixed, symbolic d", "simply connected, d=3"])
def test_a_count_is_checked_once_on_the_way_in_and_once_where_it_is_stored(monkeypatch, spec, d):
    # decompose checks d for every pi1 and stabilizes with it unchecked; Decomposition
    # checks the count it stores: d for a mixed pi1, else 0.
    checked = []
    check = decomposer.check_stabilization
    monkeypatch.setattr(decomposer, "check_stabilization", lambda n: checked.append(n) or check(n))
    decompose(spec, 1, d=d)
    assert checked == [d, d if spec is MIXED_SPEC else 0]
    checked.clear()
    mixed_decomposition(spec, 1, d=d)
    assert checked == [d, d]


def test_blocks_grow_with_distinct_summands_not_b2(hang_guard):
    spec = ManifoldSpec(Pi1Descriptor(1, ((3, 1), (3, 1), (5, 2))), 10**9, False)
    dec = decompose(spec, 1)
    assert dec.blocks == (
        (SuspCP2(), 1),
        (Sphere(4), 1),
        (Moore(4, 3), 2),
        (Moore(4, 25), 1),
        (Sphere(3), 10**9 - 1),
        (Moore(3, 3), 2),
        (Moore(3, 25), 1),
        (Sphere(2), 1),
    )
    assert render_suspension_half(dec) == (
        "S(M #_d(S^2xS^2)) = SCP^2 v S^4 v P^4(3) v P^4(3) v P^4(25)"
        " v (S^3)^{999999999+2d} v P^3(3) v P^3(3) v P^3(25) v S^2"
    )


def test_every_view_of_a_billion_copies_is_one_block(hang_guard):
    spec = manifold("Z*Z/3", 10**9)
    dec = decompose(spec, 2)
    factors = ((O(3), 1), (O(3, 3), 1), (O(2), 10**9), (O(2, 3), 1), (O(1), 1))
    assert dec.gauge == GaugeExpr("S4", 2, factors, SYMBOLIC)
    assert render(dec.gauge) == (
        "G_2(S^4) x O^3G x O^3G{3} x (O^2G)^{1000000000+2d} x O^2G{3} x O^1G"
    )
    atoms = (Sphere(5), Sphere(4), Moore(4, 3), Sphere(3), Moore(3, 3), Sphere(2))
    susp = Wedge(tuple((a, 10**9 if a == Sphere(3) else 1) for a in atoms))
    assert dec.suspension == susp
    assert decompose(spec, d=None).suspension == susp
    exact = mixed_decomposition(spec, 2, d=0)
    assert gauge_from_suspension(exact.suspension, 2) == exact.gauge
    assert gauge_from_suspension(dec.suspension, 2).blocks == dec.gauge.blocks
    assert homology_of_term(dec.suspension) == suspend(homology_of_manifold(spec))


def test_equal_cyclic_factors_are_one_block_per_dimension(hang_guard):
    n = 10**4
    dec = decompose(ManifoldSpec(Pi1Descriptor(1, ((3, 1),) * n), 2))
    assert dec.blocks == (
        (Sphere(5), 1),
        (Sphere(4), 1),
        (Moore(4, 3), n),
        (Sphere(3), 2),
        (Moore(3, 3), n),
        (Sphere(2), 1),
    )
    assert dec.gauge.blocks == ((O(3), 1), (O(3, 3), n), (O(2), 2), (O(2, 3), n), (O(1), 1))
    assert render_suspension_half(dec) == (
        "S(M #_d(S^2xS^2)) = S^5 v S^4" + " v P^4(3)" * n + " v (S^3)^{2+2d}"
        + " v P^3(3)" * n + " v S^2"
    )


#: The first twenty odd primes, for cyclic factors that are all distinct.
ODD_PRIMES_20 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73)


def _splitting_cost(pi1, b2, d):
    spec = manifold(pi1, b2)
    return line_events(lambda: render_decomposition(decompose(spec, 1, d=d)))


def test_a_splitting_costs_the_lines_of_its_distinct_summands():
    # Line events in gauge4 frames, not a clock.  b2 = 10 and 10^5, d = 10 and 10^5,
    # and 10 and 1 000 copies of one cyclic factor cost the same within 2%; twice
    # the distinct cyclic factors cost at most 2.2 times the lines.
    for small, large in (
        (("Z*Z/3", 10, None), ("Z*Z/3", 10**5, None)),
        (("Z*Z/3", 1, 10), ("Z*Z/3", 1, 10**5)),
        (("Z*" + "*".join(["Z/3"] * 10), 1, None), ("Z*" + "*".join(["Z/3"] * 1000), 1, None)),
    ):
        once, grown = _splitting_cost(*small), _splitting_cost(*large)
        assert abs(grown - once) <= 0.02 * once, (small, large, once, grown)
    few, many = (_splitting_cost("Z*" + "*".join(f"Z/{p}" for p in ODD_PRIMES_20[:k]), 1, None)
                 for k in (10, 20))
    assert few < many <= 2.2 * few, (few, many)


def test_decompose_validates_first():
    with pytest.raises(ValueError, match="even torsion prime"):
        decompose(ManifoldSpec(Pi1Descriptor(0, ((2, 1),)), 1, True))
    with pytest.raises(ValueError, match="nontrivial sigma-f"):
        decompose(ManifoldSpec(TRIVIAL_PI1, 0, False))
    with pytest.raises(ValueError, match="even torsion prime"):
        decompose(ManifoldSpec(Pi1Descriptor(1, ((2, 1),)), 1, True), d=3)


# --------------------------------------------------------------------------
# reading the gauge product off a wedge


def test_gauge_from_suspension_examples():
    got = gauge_from_suspension(wedge([SuspCP2(), Sphere(2)]), 5)
    assert got == GaugeExpr("CP2", 5, ((O(1), 1),))
    got = gauge_from_suspension(Sphere(5), 0)
    assert got == GaugeExpr("S4", 0, ())


def test_gauge_from_suspension_agrees_with_closed_forms():
    rng = random.Random(32)
    for _ in range(150):
        spec = random_spec(rng)
        t = rng.randint(-9, 9)
        if classify_pi1(spec.pi1) is Pi1Kind.MIXED:
            for d in (0, 1, 2, 3):
                dec = mixed_decomposition(spec, t, d=d)
                got = gauge_from_suspension(dec.suspension, t)
                assert (got.base, got.t, got.blocks) == (
                    dec.gauge.base,
                    dec.gauge.t,
                    dec.gauge.blocks,
                )
        else:
            dec = decompose(spec, t)
            assert gauge_from_suspension(dec.suspension, t) == dec.gauge


# --------------------------------------------------------------------------
# the stabilized formula against the exact ones


def test_mixed_formula_at_d0_matches_cyclic_branch():
    rng = random.Random(33)
    for _ in range(30):
        p = rng.choice(ODD_PRIMES)
        r = rng.randint(1, 3)
        b2 = rng.randint(0, 5)
        flag = True if b2 == 0 else rng.random() < 0.5
        spec = ManifoldSpec(Pi1Descriptor(0, ((p, r),)), b2, flag)
        t = rng.randint(-6, 6)
        exact = decompose(spec, t)
        assert exact.case_used is Pi1Kind.CYCLIC
        stabilized = mixed_decomposition(spec, t, d=0)
        assert stabilized.case_used is Pi1Kind.MIXED
        assert stabilized.suspension == exact.suspension
        assert stabilized.gauge == exact.gauge


def test_mixed_formula_at_concrete_d_is_the_exact_formula_after_stabilizing():
    rng = random.Random(34)
    for _ in range(60):
        spec = random_spec(rng)
        if classify_pi1(spec.pi1) is Pi1Kind.MIXED:
            continue
        d = rng.randint(0, 3)
        stab_spec = stabilize(spec, d)
        via_mixed = mixed_decomposition(spec, 1, d=d)
        via_exact = decompose(stab_spec, 1)
        assert via_mixed.suspension == via_exact.suspension
        assert via_mixed.gauge.blocks == via_exact.gauge.blocks
        assert via_mixed.gauge.base == via_exact.gauge.base


# --------------------------------------------------------------------------
# homology cross-check: formulas vs the independent engine


def test_suspension_homology_matches_manifold_homology():
    rng = random.Random(35)
    for _ in range(250):
        spec = random_spec(rng)
        predicted = suspend(homology_of_manifold(spec))
        recomputed = homology_of_term(decompose(spec).suspension)
        assert predicted == recomputed, spec


def test_suspension_homology_matches_after_stabilization():
    # The stabilized wedge (at concrete d) should have the homology of the
    # stabilized manifold, whatever the fundamental group's shape.
    rng = random.Random(36)
    for _ in range(60):
        spec = random_spec(rng)
        d = rng.randint(0, 3)
        predicted = suspend(homology_of_manifold(stabilize(spec, d)))
        recomputed = homology_of_term(mixed_decomposition(spec, d=d).suspension)
        assert predicted == recomputed


# --------------------------------------------------------------------------
# presentation order and rendering


def test_presentation_puts_base_first_then_top_down():
    spec = ManifoldSpec(Pi1Descriptor(2, ((3, 1), (5, 2))), 2, False)
    dec = decompose(spec, 0, d=0)
    assert expand(dec.blocks) == [
        SuspCP2(),
        Sphere(4),
        Sphere(4),
        Moore(4, 3),
        Moore(4, 25),
        Sphere(3),
        Moore(3, 3),
        Moore(3, 25),
        Sphere(2),
        Sphere(2),
    ]


def test_render_decomposition_cyclic_golden():
    dec = decompose(ManifoldSpec(Pi1Descriptor(0, ((3, 1),)), 2, False), 4)
    assert render_decomposition(dec) == (
        "SM = SCP^2 v P^4(3) v S^3 v P^3(3); "
        "G_4(M) = G_4(CP^2) x O^3G{3} x O^2G x O^2G{3}"
    )


def test_render_decomposition_symbolic_golden():
    dec = decompose(ManifoldSpec(Pi1Descriptor(1, ((3, 1),)), 1, True), 7)
    assert render_decomposition(dec) == (
        "S(M #_d(S^2xS^2)) = S^5 v S^4 v P^4(3) v (S^3)^{1+2d} v P^3(3) v S^2; "
        "G_7(M) x (O^2G)^{2d} ~ G_7(S^4) x O^3G x O^3G{3} x (O^2G)^{1+2d} x O^2G{3} x O^1G"
    )


def test_render_decomposition_concrete_stabilization_golden():
    dec = decompose(ManifoldSpec(Pi1Descriptor(1, ((3, 1),)), 1, True), 7, d=1)
    assert render_decomposition(dec) == (
        "S(M #_1(S^2xS^2)) = S^5 v S^4 v P^4(3) v S^3 v S^3 v S^3 v P^3(3) v S^2; "
        "G_7(M) x (O^2G)^2 ~ G_7(S^4) x O^3G x O^3G{3} x O^2G x O^2G x O^2G x O^2G{3} x O^1G"
    )


def test_gauge_half_is_the_rendered_gauge_product():
    # render_gauge_half writes the mapped blocks without building dec.gauge,
    # which merges and sorts them again; both must give the same text.
    rng = random.Random(1609)
    seen = set()
    for i in range(300):
        spec = random_spec(rng)
        d = (None, 0, rng.randint(1, 4))[i % 3]
        build = mixed_decomposition if i % 2 else decompose
        dec = build(spec, rng.randint(-5, 5), d=d)
        half = render_gauge_half(dec)
        head, sep, right = half.partition(" = " if dec.stabilization == 0 else " ~ ")
        assert sep and right == render(dec.gauge), half
        assert dec.factors == list(dec.gauge.blocks)
        seen.add((str(dec.stabilization) if dec.stabilization in (0, SYMBOLIC) else "d",
                  spec.sigma_f_trivial))
    assert seen == {(s, f) for s in ("0", SYMBOLIC, "d") for f in (True, False)}


def test_render_decomposition_bare_base():
    assert render_decomposition(decompose(S4_ONLY, 0)) == "SM = S^5; G_0(M) = G_0(S^4)"


def test_render_symbolic_with_no_constant_three_spheres():
    spec = ManifoldSpec(Pi1Descriptor(0, ((3, 2), (5, 2))), 0, True)
    dec = decompose(spec, 0)
    assert render_suspension_half(dec) == (
        "S(M #_d(S^2xS^2)) = S^5 v P^4(9) v P^4(25) v (S^3)^{2d} v P^3(9) v P^3(25)"
    )
