"""Descriptor and spec invariants, the pi1 grammar, connected sums, stabilization."""

import dataclasses
import random

import pytest

from conftest import line_events, random_pi1, random_spec
from gauge4 import (
    SYMBOLIC,
    Decomposition,
    DecompositionError,
    InvalidSpecError,
    ManifoldSpec,
    Pi1Descriptor,
    Pi1Kind,
    Sphere,
    TermError,
    classify_pi1,
    connected_sum,
    decompose,
    manifold,
    parse_pi1,
    render_pi1,
    stabilize,
)
from gauge4.manifold import PI1_KINDS, TRIVIAL_PI1, Pi1ParseError


def test_descriptor_sorts_cyclic_factors():
    a = Pi1Descriptor(1, ((5, 1), (3, 3), (3, 1)))
    assert a.cyclic_factors == ((3, 1), (3, 3), (5, 1))
    assert a == Pi1Descriptor(1, ((3, 1), (3, 3), (5, 1)))


def test_classify_pi1():
    assert classify_pi1(TRIVIAL_PI1) is Pi1Kind.TRIVIAL
    assert classify_pi1(Pi1Descriptor(3)) is Pi1Kind.FREE
    assert classify_pi1(Pi1Descriptor(0, ((7, 1),))) is Pi1Kind.CYCLIC
    assert classify_pi1(Pi1Descriptor(1, ((3, 1),))) is Pi1Kind.MIXED
    assert classify_pi1(Pi1Descriptor(0, ((3, 1), (3, 1)))) is Pi1Kind.MIXED
    assert classify_pi1(Pi1Descriptor(0, ((3, 2), (5, 1)))) is Pi1Kind.MIXED


def test_a_pi1_kind_is_one_of_four_constants():
    # each is the str --json writes as the case, and Pi1Kind only names them
    assert PI1_KINDS == (Pi1Kind.TRIVIAL, Pi1Kind.FREE, Pi1Kind.CYCLIC, Pi1Kind.MIXED)
    assert PI1_KINDS == ("simply_connected", "free", "cyclic", "mixed")
    assert all(type(kind) is str for kind in PI1_KINDS)
    assert not [name for name, member in vars(Pi1Kind).items() if callable(member)]


@pytest.mark.parametrize("label", ["banana", "MIXED", "Mixed", "mixed ", "", None, 0, []])
def test_no_fifth_pi1_kind_is_built(label):
    with pytest.raises(DecompositionError) as exc:
        Decomposition(Sphere(5), 0, 0, label)
    assert str(exc.value) == f"case_used must be a Pi1Kind, got {label!r}"


def test_construction_accepts_valid_specs():
    spec = ManifoldSpec(Pi1Descriptor(1, ((3, 2),)), 2, False)
    assert (spec.pi1, spec.b2, spec.sigma_f_trivial) == (Pi1Descriptor(1, ((3, 2),)), 2, False)


def test_construction_rejects_nonpositive_exponent():
    # The descriptor refuses it: (3, -1) once rendered Z/0.3333333333333333,
    # and (3, 0) Z/1, which parse_pi1 refuses; both were called CYCLIC.
    for r in (0, -1):
        with pytest.raises(InvalidSpecError, match=f"^cyclic factor exponent must be >= 1, got {r}$"):
            Pi1Descriptor(0, ((3, r),))


def test_construction_reports_all_errors_at_once():
    # Each reason once, in the order first met, however many factors give it.
    with pytest.raises(InvalidSpecError) as exc:
        ManifoldSpec(Pi1Descriptor(0, ((2, 1), (3, 1), (2, 2))), 0, False)
    assert str(exc.value) == "even torsion prime; nontrivial sigma-f with b2 = 0"


def test_no_route_builds_an_out_of_domain_spec():
    flagged = ManifoldSpec(TRIVIAL_PI1, 1, False)
    free = ManifoldSpec(Pi1Descriptor(1), 1, True)
    even = Pi1Descriptor(0, ((2, 1),))
    # ManifoldSpec is no dataclass, so the dataclasses.replace route is closed.
    with pytest.raises(TypeError):
        dataclasses.replace(flagged, b2=0)
    with pytest.raises(TypeError):
        dataclasses.replace(free, pi1=even)
    with pytest.raises(InvalidSpecError, match="^nontrivial sigma-f with b2 = 0$"):
        ManifoldSpec(pi1=flagged.pi1, b2=0, sigma_f_trivial=flagged.sigma_f_trivial)
    with pytest.raises(InvalidSpecError, match="^even torsion prime$"):
        ManifoldSpec(pi1=even, b2=free.b2, sigma_f_trivial=free.sigma_f_trivial)
    # type(spec)(*fields) is the route copy and pickle take through __reduce__.
    with pytest.raises(InvalidSpecError, match="^nontrivial sigma-f with b2 = 0$"):
        type(flagged)(flagged.pi1, 0, flagged.sigma_f_trivial)
    with pytest.raises(InvalidSpecError, match="^even torsion prime$"):
        type(free)(even, free.b2, free.sigma_f_trivial)
    with pytest.raises(InvalidSpecError, match="^even torsion prime$"):
        manifold("Z*Z/8", 1)
    with pytest.raises(InvalidSpecError, match="^nontrivial sigma-f with b2 = 0$"):
        manifold("Z/3", 0, spin=False)
    # stabilize and connected_sum of valid specs stay in the domain: the
    # flag of a sum is nontrivial only if a summand with b2 >= 1 has it.
    rng = random.Random(26)
    for _ in range(300):
        a, b = random_spec(rng), random_spec(rng)
        assert stabilize(a, rng.randint(0, 4)).pi1 == a.pi1
        assert connected_sum(a, b).b2 == a.b2 + b.b2


# --------------------------------------------------------------------------
# connected sum and stabilization


def test_connected_sum_combines_all_three_fields():
    a = ManifoldSpec(Pi1Descriptor(1), 1, True)
    b = ManifoldSpec(Pi1Descriptor(0, ((3, 1),)), 2, False)
    c = connected_sum(a, b)
    assert c == ManifoldSpec(Pi1Descriptor(1, ((3, 1),)), 3, False)


def test_connected_sum_is_commutative_and_associative():
    rng = random.Random(22)
    for _ in range(60):
        a, b, c = (random_spec(rng) for _ in range(3))
        assert connected_sum(a, b) == connected_sum(b, a)
        assert connected_sum(connected_sum(a, b), c) == connected_sum(a, connected_sum(b, c))


def test_connected_sum_unit():
    point_like = ManifoldSpec()  # the 4-sphere: trivial pi1, b2 = 0
    rng = random.Random(23)
    for _ in range(40):
        spec = random_spec(rng)
        assert connected_sum(spec, point_like) == spec


def test_stabilize_adds_hyperbolic_pairs():
    spec = ManifoldSpec(Pi1Descriptor(1), 1, False)
    assert stabilize(spec, 0) == spec
    assert stabilize(spec, 3) == ManifoldSpec(Pi1Descriptor(1), 7, False)
    assert stabilize(stabilize(spec, 2), 1) == stabilize(spec, 3)
    with pytest.raises(TermError, match="^stabilization count must be >= 0, got -1$"):
        stabilize(spec, -1)
    # the count is named, not the b2 it would give (2 * 1.5 + 1 = 4.0)
    with pytest.raises(TermError, match="^stabilization count must be an integer, got 1.5$"):
        stabilize(spec, 1.5)
    # a manifold needs a concrete count
    for d, shown in ((SYMBOLIC, "'symbolic'"), (None, "None")):
        with pytest.raises(TermError, match=f"^stabilize needs a concrete count, got {shown}$"):
            stabilize(spec, d)


def test_stabilize_matches_connected_sum_with_sphere_products():
    s2xs2 = ManifoldSpec(TRIVIAL_PI1, 2, True)
    rng = random.Random(24)
    for _ in range(40):
        spec = random_spec(rng)
        summed = spec
        for _ in range(3):
            summed = connected_sum(summed, s2xs2)
        assert summed == stabilize(spec, 3)


# --------------------------------------------------------------------------
# grammar


def test_parse_pi1_examples():
    assert parse_pi1("1") == TRIVIAL_PI1
    assert parse_pi1("Z") == Pi1Descriptor(1)
    assert parse_pi1("Z*Z*Z/9") == Pi1Descriptor(2, ((3, 2),))
    assert parse_pi1("Z/27*Z/5") == Pi1Descriptor(0, ((3, 3), (5, 1)))
    assert parse_pi1("Z/5*Z") == parse_pi1("Z*Z/5")


def test_parse_pi1_ignores_whitespace():
    assert parse_pi1("  Z * Z / 9 ") == Pi1Descriptor(1, ((3, 2),))
    assert parse_pi1("\tZ\n") == Pi1Descriptor(1)
    assert parse_pi1(" 1\n") == TRIVIAL_PI1
    # but none inside a number, which Z/1 1 once was (as Z/11); the atom is echoed stripped
    with pytest.raises(Pi1ParseError, match=r"^bad fundamental-group atom: 'Z/1 1'$"):
        parse_pi1("Z * Z/1 1 ")


def test_parse_pi1_accepts_even_prime_powers_for_validate_to_reject():
    # The grammar keeps p = 2 so that the spec, not the parser, says why.
    got = parse_pi1("Z/8")
    assert got == Pi1Descriptor(0, ((2, 3),))
    with pytest.raises(InvalidSpecError, match="even torsion prime"):
        ManifoldSpec(got, 1, True)


def test_parse_pi1_rejections():
    for bad in ["", "  ", "Z/12", "Z/15", "Z/1", "Z/0", "1*Z", "Z**Z", "Z/", "Q", "Z/9*",
                "Z/1 1", "Z/2\t7", "1 1"]:
        with pytest.raises(Pi1ParseError):
            parse_pi1(bad)


def test_render_parse_round_trip():
    rng = random.Random(25)
    for _ in range(200):
        pi1 = random_pi1(rng)
        assert parse_pi1(render_pi1(pi1)) == pi1
    assert render_pi1(TRIVIAL_PI1) == "1"
    assert render_pi1(Pi1Descriptor(2, ((3, 2), (5, 1)))) == "Z*Z*Z/9*Z/5"


def test_manifold_constructor_sugar():
    spec = manifold("Z*Z/3", 2, spin=False)
    assert spec == ManifoldSpec(Pi1Descriptor(1, ((3, 1),)), 2, False)
    assert spec.sigma_f_trivial is False
    assert manifold("1", 1, sigma_f_trivial=True) == manifold("1", 1, spin=True)
    with pytest.raises(InvalidSpecError):
        manifold("1", 1, sigma_f_trivial=True, spin=False)


# --------------------------------------------------------------------------
# domain invariants enforced where values are built


def test_descriptor_rejects_bases_that_are_not_prime_powers():
    for base in (15, 12, 1, 0, -3):
        with pytest.raises(InvalidSpecError, match="not a prime power"):
            Pi1Descriptor(0, ((base, 1),))


def test_descriptor_canonicalises_prime_power_bases():
    assert Pi1Descriptor(0, ((9, 1),)) == Pi1Descriptor(0, ((3, 2),))
    assert Pi1Descriptor(1, ((27, 2), (5, 1))).cyclic_factors == ((3, 6), (5, 1))
    assert render_pi1(Pi1Descriptor(0, ((25, 1), (3, 1)))) == "Z/3*Z/25"


def test_the_even_prime_check_reads_the_first_factor_alone():
    # The factors are sorted (p, r) pairs, so a 2 comes first: line events in gauge4
    # frames, not a clock, are the same for 1 and for 300 cyclic factors, 12 each,
    # where a generator over every factor took 14 and 313.
    few, many = (line_events(ManifoldSpec, Pi1Descriptor(1, tuple((3, r) for r in range(1, n))),
                             2, False) for n in (2, 301))
    assert few == many <= 12, (few, many)


def test_descriptor_keeps_p_2_for_validate_to_reject():
    pi1 = Pi1Descriptor(0, ((4, 1),))
    assert pi1.cyclic_factors == ((2, 2),)
    with pytest.raises(InvalidSpecError, match="even torsion prime"):
        ManifoldSpec(pi1, 1, True)


def test_a_non_bool_flag_is_rejected():
    # "false" is truthy: accepted, it would decompose M as spin.
    for flag in ("false", 0, 1, None, 1.0):
        with pytest.raises(InvalidSpecError, match="^sigma-f flag must be a bool, got "):
            ManifoldSpec(TRIVIAL_PI1, 2, flag)
    with pytest.raises(InvalidSpecError, match="^sigma-f flag must be a bool, got 'false'$"):
        manifold("Z/3", 2, spin="false")
    with pytest.raises(InvalidSpecError, match="^sigma-f flag must be a bool, got 0$"):
        manifold("Z/3", 2, sigma_f_trivial=0)


def test_cyclic_factors_that_are_not_ints_are_rejected():
    # Accepted, (3, 1.5) would decompose with a Moore space of modulus
    # 3**1.5, and (3.0, 1) would store a float prime.
    with pytest.raises(InvalidSpecError, match="^cyclic factor exponent must be an integer, got 1.5$"):
        decompose(ManifoldSpec(Pi1Descriptor(0, ((3, 1.5),)), 2))
    with pytest.raises(InvalidSpecError, match="^cyclic factor base must be an integer, got 3.0$"):
        Pi1Descriptor(0, ((3.0, 1),))
    for p, r, what in ((True, 1, "base"), ("3", 1, "base"), (9, True, "exponent"), (5, "2", "exponent")):
        with pytest.raises(InvalidSpecError, match=f"^cyclic factor {what} must be an integer, got "):
            Pi1Descriptor(1, ((3, 1), (p, r)))
    # Each distinct base is decided once, so a base equal to an int base
    # already decided is that base: the stored factors stay ints.
    assert Pi1Descriptor(0, ((3, 1), (3.0, 2))).cyclic_factors == ((3, 1), (3, 2))


def test_a_pi1_that_is_not_a_descriptor_is_rejected():
    # Unchecked, it would end in a bare AttributeError on pi1.cyclic_factors.
    with pytest.raises(InvalidSpecError, match="^pi1 must be a Pi1Descriptor, got 'Z/3'$"):
        ManifoldSpec("Z/3", 2)
    with pytest.raises(InvalidSpecError, match="^pi1 must be a Pi1Descriptor, got None$"):
        ManifoldSpec(None)
    assert ManifoldSpec(parse_pi1("Z/3"), 2) == manifold("Z/3", 2)


def test_parse_pi1_with_a_61_bit_prime_modulus(hang_guard):
    p = 2**61 - 1
    assert parse_pi1(f"Z*Z/{p}") == Pi1Descriptor(1, ((p, 1),))
    assert parse_pi1(f"Z/{p}*Z/9") == Pi1Descriptor(0, ((3, 2), (p, 1)))
    with pytest.raises(Pi1ParseError, match="not a prime power"):
        parse_pi1(f"Z/{(2**31 - 1) * 1000003}")
    with pytest.raises(ValueError, match="larger than 2\\*\\*64"):
        parse_pi1(f"Z/{2**64 + 1}")
    # Each distinct modulus is decided once: 10**5 copies of p are one
    # Miller–Rabin test, not 10**5, and the error names the first bad copy.
    assert parse_pi1("*".join([f"Z/{p}"] * 10**5)) == Pi1Descriptor(0, ((p, 1),) * 10**5)
    factors = parse_pi1("*".join(["Z/9", "Z/3"] * 10**4)).cyclic_factors
    assert factors == ((3, 1),) * 10**4 + ((3, 2),) * 10**4
    assert Pi1Descriptor(0, ((9, 2), (9, 1))).cyclic_factors == ((3, 2), (3, 4))
    with pytest.raises(InvalidSpecError, match=r"^modulus 15\^2 is not a prime power$"):
        Pi1Descriptor(0, ((3, 1), (15, 2), (15, 1)))
    with pytest.raises(Pi1ParseError, match=r"^modulus 15 is not a prime power$"):
        parse_pi1("*".join(["Z/15"] * 10**4))
