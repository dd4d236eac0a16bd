"""Every integer a value holds is checked by one function, ``value.integer``.

A count, dimension, modulus, rank, bundle class or prime that is not an
``int`` (a bool is not one) is rejected where the value is built, with the
error type of the module that builds it and the text ``integer`` writes.
The lint at the end keeps that text, and the integer test, in one place.
"""

import re
from pathlib import Path

import pytest

import gauge4
from gauge4 import (
    Decomposition,
    DecompositionError,
    GaugeExpr,
    GradedAbelianGroup,
    IntMatrix,
    InvalidSpecError,
    LieGroupSpec,
    LoopFactor,
    ManifoldSpec,
    Moore,
    Pi1Descriptor,
    Pi1Kind,
    Sphere,
    TermError,
    Wedge,
    classify,
    classify_base,
    decompose,
    gauge_from_suspension,
    homology_of_term,
    manifold,
    map_space,
    parse_group,
    parse_matrix,
    render,
    smith_normal_form,
    wedge,
)
from gauge4.classifier import GroupParseError
from gauge4.manifold import TRIVIAL_PI1
from gauge4.terms import check_stabilization
from gauge4.value import integer

SU2 = LieGroupSpec("SU", 2)
Z_SPEC = ManifoldSpec(Pi1Descriptor(1), 1)

#: name -> (build from one integer input x, error type, what the message names)
ENTRY_POINTS = {
    "Pi1Descriptor free rank": (lambda x: Pi1Descriptor(x), InvalidSpecError, "free rank"),
    "Pi1Descriptor base": (lambda x: Pi1Descriptor(0, ((x, 1),)), InvalidSpecError,
                           "cyclic factor base"),
    "Pi1Descriptor exponent": (lambda x: Pi1Descriptor(0, ((3, x),)), InvalidSpecError,
                               "cyclic factor exponent"),
    "ManifoldSpec b2": (lambda x: ManifoldSpec(TRIVIAL_PI1, x), InvalidSpecError, "b2"),
    "manifold b2": (lambda x: manifold("Z/3", x), InvalidSpecError, "b2"),
    "check_stabilization": (check_stabilization, TermError, "stabilization count"),
    "decompose d": (lambda x: decompose(manifold("Z*Z/3", 1), d=x), TermError,
                    "stabilization count"),
    "IntMatrix rows": (lambda x: IntMatrix(x, 0, ()), ValueError, "matrix rows"),
    "IntMatrix columns": (lambda x: IntMatrix(0, x, ()), ValueError, "matrix columns"),
    "Sphere": (Sphere, TermError, "sphere dimension"),
    "Moore dimension": (lambda x: Moore(x, 3), TermError, "Moore space dimension"),
    "Moore modulus": (lambda x: Moore(3, x), TermError, "Moore space modulus"),
    "LoopFactor order": (LoopFactor, TermError, "loop order"),
    "LoopFactor modulus": (lambda x: LoopFactor(2, x), TermError, "loop factor modulus"),
    "Wedge count": (lambda x: Wedge(((Sphere(3), x),)), TermError, "block count"),
    "GaugeExpr count": (lambda x: GaugeExpr("S4", 0, ((LoopFactor(2), x),)), TermError,
                        "block count"),
    "GradedAbelianGroup rank": (lambda x: GradedAbelianGroup.of({1: (x, ())}), ValueError,
                                "free rank"),
    "GradedAbelianGroup torsion": (lambda x: GradedAbelianGroup.of({1: (0, (x,))}), ValueError,
                                   "torsion entry"),
    "LieGroupSpec SU": (lambda x: LieGroupSpec("SU", x), GroupParseError, "group rank n"),
    "LieGroupSpec Sp": (lambda x: LieGroupSpec("Sp", x), GroupParseError, "group rank n"),
    "GaugeExpr t": (lambda x: GaugeExpr("S4", x), TermError, "bundle class t"),
    "Decomposition t": (lambda x: Decomposition(Wedge(((Sphere(5), 1),)), x, 0, Pi1Kind.TRIVIAL),
                        DecompositionError, "bundle class t"),
    "decompose t": (lambda x: decompose(manifold("Z/3", 1), x), DecompositionError,
                    "bundle class t"),
    "classify t": (lambda x: classify(SU2, Z_SPEC, x, 2), ValueError, "bundle class t"),
    "classify s": (lambda x: classify(SU2, Z_SPEC, 1, x), ValueError, "bundle class s"),
    "classify_base t": (lambda x: classify_base(SU2, "S4", x, 2), ValueError, "bundle class t"),
    "classify prime": (lambda x: classify(SU2, Z_SPEC, 1, 2, primes=(5, x)), ValueError,
                       "prime"),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("bad", [1.5, True, "3"], ids=["float", "bool", "str"])
def test_every_entry_point_rejects_a_non_int(entry, bad):
    build, error, what = ENTRY_POINTS[entry]
    with pytest.raises(error) as exc:
        build(bad)
    assert type(exc.value) is error
    assert str(exc.value) == f"{what} must be an integer, got {bad!r}"


@pytest.mark.parametrize(
    "build,error,message",
    [
        # once answered (2,), (1, 14), Z/4.5, O^2G{2.5}, Sp(True), the key 3.0 and G_True(M)
        (lambda: smith_normal_form(IntMatrix.from_rows([[2.5]])), ValueError,
         "matrix entries must be integers, got 2.5"),
        (lambda: smith_normal_form(IntMatrix.from_rows([["7", 0], [0, 2]])), ValueError,
         "matrix entries must be integers, got '7'"),
        (lambda: IntMatrix.from_rows([[1, True]]), ValueError,
         "matrix entries must be integers, got True"),
        (lambda: homology_of_term(Moore(3, 4.5)), TermError,
         "Moore space modulus must be an integer, got 4.5"),
        # once answered Z/4.5, dropped the entry, and raised a bare TypeError
        (lambda: GradedAbelianGroup.of({1: (0, (4.5,))}), ValueError,
         "torsion entry must be an integer, got 4.5"),
        (lambda: GradedAbelianGroup.of({1: (0, (True,))}), ValueError,
         "torsion entry must be an integer, got True"),
        (lambda: GradedAbelianGroup.of({1: (0, ("6",))}), ValueError,
         "torsion entry must be an integer, got '6'"),
        # Z/0 is Z: once dropped as if it were Z/1, printing H_1 = 0
        (lambda: GradedAbelianGroup.of({1: (0, (0,))}), ValueError,
         "torsion entry must be nonzero, got 0"),
        (lambda: render(LoopFactor(2, 2.5)), TermError,
         "loop factor modulus must be an integer, got 2.5"),
        (lambda: LieGroupSpec("Sp", True), GroupParseError,
         "group rank n must be an integer, got True"),
        (lambda: classify(SU2, Z_SPEC, 1, 2, primes=(3.0,)), ValueError,
         "prime must be an integer, got 3.0"),
        (lambda: decompose(manifold("Z/3", 1), t=True), DecompositionError,
         "bundle class t must be an integer, got True"),
        # the bundle class t
        (lambda: decompose(manifold("Z/3", 1), t=1.5), DecompositionError,
         "bundle class t must be an integer, got 1.5"),
        (lambda: GaugeExpr("S4", "x"), TermError, "bundle class t must be an integer, got 'x'"),
        (lambda: classify(parse_group("SU(2)"), manifold("Z", 1), 1.5, 2), ValueError,
         "bundle class t must be an integer, got 1.5"),
        # the term constructors
        (lambda: render(map_space(Sphere(2.5))), TermError,
         "sphere dimension must be an integer, got 2.5"),
        (lambda: render(wedge([Sphere(5), Moore(3, 4.5)])), TermError,
         "Moore space modulus must be an integer, got 4.5"),
        (lambda: render(LoopFactor(True)), TermError, "loop order must be an integer, got True"),
        (lambda: gauge_from_suspension(wedge([Sphere(5), Sphere(2.5)]), 0), TermError,
         "sphere dimension must be an integer, got 2.5"),
        (lambda: homology_of_term(Sphere(2.5)), TermError,
         "sphere dimension must be an integer, got 2.5"),
        # a matrix from the command-line grammar
        (lambda: parse_matrix("[[1, 2.5]]"), ValueError,
         "matrix entries must be integers, got 2.5"),
        (lambda: parse_matrix("[[true]]"), ValueError, "matrix entries must be integers, got True"),
        (lambda: parse_matrix('[["3"]]'), ValueError, "matrix entries must be integers, got '3'"),
        # range checks keep their text
        (lambda: Sphere(0), TermError, "sphere dimension must be >= 1, got 0"),
        (lambda: LoopFactor(4), TermError, "loop order must be 1..3, got 4"),
        (lambda: LoopFactor(2, 1), TermError, "loop factor modulus must be >= 2, got 1"),
        (lambda: Wedge(((Sphere(3), -2),)), TermError, "block count must be >= 0, got -2"),
        (lambda: IntMatrix(-1, 0, ()), ValueError, "matrix rows must be >= 0, got -1"),
        (lambda: GradedAbelianGroup.of({1: (-1, ())}), ValueError,
         "free rank must be >= 0, got -1"),
        (lambda: Pi1Descriptor(-1), InvalidSpecError, "free rank must be >= 0, got -1"),
        (lambda: check_stabilization(-2), TermError, "stabilization count must be >= 0, got -2"),
        (lambda: LieGroupSpec("SU", 1), GroupParseError, "SU(n) needs n >= 2"),
    ],
)
def test_each_input_raises_its_module_error_with_the_exact_text(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_from_rows_builds_int_matrices():
    m = IntMatrix.from_rows([[1, -2], [0, 3]])
    assert (m.rows, m.cols, m.entries) == (2, 2, ((1, -2), (0, 3)))
    assert all(type(v) is int for row in m.entries for v in row)
    assert IntMatrix.from_rows([], 3) == IntMatrix(0, 3, ()) == IntMatrix.zero(0, 3)
    assert IntMatrix.from_rows([[], []], 0) == IntMatrix.zero(2, 0)
    assert IntMatrix.from_rows([]) == IntMatrix(0, 0, ())
    assert smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]])).invariant_factors == (1, 6)


def test_int_matrix_stores_tuples_whatever_it_is_given():
    m = IntMatrix(1, 1, [[1]])
    assert m == IntMatrix.from_rows([[1]]) and hash(m) == hash(IntMatrix.from_rows(((1,),)))
    assert m.entries == ((1,),)
    assert IntMatrix(2, 2, [[1, 2], (3, 4)]).entries == ((1, 2), (3, 4))
    assert IntMatrix.zero(2, 3).entries == ((0, 0, 0), (0, 0, 0))
    assert len({IntMatrix(2, 1, [[0], [0]]), IntMatrix.zero(2, 1)}) == 1
    with pytest.raises(ValueError, match="^ragged matrix rows$"):
        IntMatrix(2, 2, [[1, 2], [3]])
    with pytest.raises(ValueError, match="^expected 2 rows, got 1$"):
        IntMatrix(2, 1, [[1]])


def test_integer_returns_an_int_it_accepts():
    assert integer(0, "n", 0) == 0
    assert integer(-5, "n") == -5
    assert integer(10**30, "n", 1) == 10**30
    with pytest.raises(KeyError):  # any error class
        integer(False, "n", error=KeyError)


SRC = Path(gauge4.__file__).parent


def _lines(skip: str = "") -> list[tuple[str, str]]:
    return [(path.name, line) for path in sorted(SRC.glob("*.py")) if path.name != skip
            for line in path.read_text().splitlines()]


def test_value_py_owns_the_integer_check():
    # the two messages are written only by value.integer
    for name, line in _lines():
        if "must be an integer" in line or "must be >= " in line:
            assert name == "value.py", line
    # no hand-written integer test is left beside the matrix entries' (their message names
    # the entries, plural); the one bool test left is the sigma-f flag's
    tests = [(name, line.strip()) for name, line in _lines(skip="value.py")
             if re.search(r"isinstance\([^)]*\b(bool|int)\b|type\(\w+\) is (not )?int\b", line)]
    assert tests == [
        ("homology.py", "bad = [v for row in entries for v in row if type(v) is not int]"),
        ("manifold.py", "if not isinstance(sigma_f_trivial, bool):"),
    ]
    # one constant label for the stabilization count
    assert len([line for _, line in _lines() if '"stabilization count"' in line]) == 1
