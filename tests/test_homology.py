"""Smith normal form against a minors oracle; chain complexes against
closed-form homology; the suspension shift."""

import random
import time
from itertools import combinations
from math import gcd, prod

import pytest

from conftest import handle_complex, random_matrix_rows, random_spec
from gauge4 import (
    ChainComplexError,
    GradedAbelianGroup,
    IntMatrix,
    ManifoldSpec,
    Moore,
    Pi1Descriptor,
    Sphere,
    SuspCP2,
    chain_homology,
    homology_of_manifold,
    homology_of_term,
    parse_matrix,
    smith_normal_form,
    suspend,
    wedge,
)
from gauge4 import homology
from gauge4.homology import render_graded


# --------------------------------------------------------------------------
# independent oracle: d1 * ... * dr equals the gcd of all r x r minors


def det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, v in enumerate(rows[0]):
        if v:
            minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
            total += (-1) ** j * v * det(minor)
    return total


def minor_gcd(entries, r):
    g = 0
    for ri in combinations(range(len(entries)), r):
        for ci in combinations(range(len(entries[0])), r):
            g = gcd(g, abs(det([[entries[i][j] for j in ci] for i in ri])))
    return g


def check_against_minors(rows):
    mat = IntMatrix.from_rows(rows)
    factors, rank = smith_normal_form(mat)
    assert rank == len(factors)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0, f"{factors} not a divisibility chain"
    prod = 1
    for r, d in enumerate(factors, start=1):
        assert d > 0
        prod *= d
        assert prod == minor_gcd(rows, r), f"rank-{r} minors disagree on {rows}"
    if rank < min(len(rows), len(rows[0])):
        assert minor_gcd(rows, rank + 1) == 0


def test_snf_pinned_examples():
    cases = [
        ([[1, 0], [0, 1]], (1, 1)),
        ([[2, 4], [6, 8]], (2, 4)),
        ([[0, 0], [0, 0]], ()),
        ([[6]], (6,)),
        ([[2, 0], [0, 3]], (1, 6)),
        ([[4, 6], [6, 9]], (1,)),  # rank 1: rows proportional over Q
        ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], (1, 3)),
    ]
    for rows, expected in cases:
        assert smith_normal_form(IntMatrix.from_rows(rows)).invariant_factors == expected


def test_snf_degenerate_shapes():
    assert smith_normal_form(IntMatrix.from_rows([], cols=0)).invariant_factors == ()
    assert smith_normal_form(IntMatrix.from_rows([[]], cols=0)).invariant_factors == ()
    assert smith_normal_form(IntMatrix.zero(0, 3)).invariant_factors == ()
    assert smith_normal_form(IntMatrix.from_rows([[0, 7, 0]])).invariant_factors == (7,)


def test_snf_matches_minor_oracle():
    rng = random.Random(20213)
    for _ in range(80):
        check_against_minors(random_matrix_rows(rng))


def test_snf_modulo_d_matches_minor_oracle(monkeypatch):
    # With the growth limit at 0 every nonzero input leaves the elimination
    # over Z at once, so this covers the modular pass alone.
    monkeypatch.setattr(homology, "_GROWTH_LIMIT", 0)
    rng = random.Random(20214)
    for _ in range(80):
        check_against_minors(random_matrix_rows(rng))
    for rows, expected in [([[6]], (6,)), ([[2, 4], [6, 8]], (2, 4)), ([[4, 6], [6, 9]], (1,)),
                           ([[2, 0], [0, 3]], (1, 6)), ([[0, 7, 0]], (7,))]:
        assert smith_normal_form(IntMatrix.from_rows(rows)).invariant_factors == expected


def test_snf_both_passes_agree_on_rectangular_and_low_rank(monkeypatch):
    rng = random.Random(77)
    cases = []
    for _ in range(150):
        m, n, k = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 4)
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
        right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        cases.append([[sum(left[i][x] * right[x][j] for x in range(k)) for j in range(n)]
                      for i in range(m)])
    over_z = [smith_normal_form(IntMatrix.from_rows(rows)) for rows in cases]
    monkeypatch.setattr(homology, "_GROWTH_LIMIT", 0)
    assert [smith_normal_form(IntMatrix.from_rows(rows)) for rows in cases] == over_z


# --------------------------------------------------------------------------
# SNF sweep over dense matrices, with an oracle that factors nothing


def bareiss(rows):
    """(rank over Q, determinant or 0 when singular or not square)."""
    work = [list(r) for r in rows]
    m, n = len(work), len(work[0])
    rank, prev, sign = 0, 1, 1
    for c in range(n):
        k = next((i for i in range(rank, m) if work[i][c]), None)
        if k is None:
            continue
        if k != rank:
            work[rank], work[k] = work[k], work[rank]
            sign = -sign
        for i in range(rank + 1, m):
            for j in range(c + 1, n):
                work[i][j] = (work[rank][c] * work[i][j] - work[i][c] * work[rank][j]) // prev
            work[i][c] = 0
        prev = work[rank][c]
        rank += 1
    det = sign * prev if rank == m == n else 0
    return rank, det


def rank_mod(rows, p):
    work = [[v % p for v in r] for r in rows]
    rank = 0
    for c in range(len(work[0])):
        k = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if k is None:
            continue
        work[rank], work[k] = work[k], work[rank]
        inv = pow(work[rank][c], -1, p)
        work[rank] = [v * inv % p for v in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][c]:
                f = work[i][c]
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


SWEEP = [(4, 25), (6, 25), (7, 25), (8, 25), (12, 8), (16, 4), (32, 2)]


@pytest.mark.parametrize("side,count", SWEEP, ids=[f"{n}x{n}" for n, _ in SWEEP])
def test_snf_sweep_on_dense_matrices(hang_guard, side, count):
    rng = random.Random(side)
    for _ in range(count):
        rows = [[rng.randint(-9, 9) for _ in range(side)] for _ in range(side)]
        start = time.process_time()
        factors, rank = smith_normal_form(IntMatrix.from_rows(rows))
        assert time.process_time() - start < 1.0
        assert rank == len(factors)
        assert all(d > 0 for d in factors)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
        q_rank, det = bareiss(rows)
        assert rank == q_rank
        if det:
            assert prod(factors) == abs(det)
        for p in (2, 3, 5, 7):
            assert sum(1 for d in factors if d % p == 0) == rank - rank_mod(rows, p)


# --------------------------------------------------------------------------
# conjugated cellular chain complexes


def test_conjugated_complexes_with_three_coprime_moduli(hang_guard):
    # Z^{*2} * Z/125 * Z/343 * Z/169 with b2 = 2: d3 is 8 x 5, the shape on
    # which elimination without a growth bound ran away.
    spec = ManifoldSpec(Pi1Descriptor(2, ((5, 3), (7, 3), (13, 2))), 2, True)
    expected = homology_of_manifold(spec)
    rng = random.Random(27)
    for _ in range(200):
        g = chain_homology(handle_complex(rng, spec))
        assert g == expected
        assert g.euler_characteristic == 2 - 2 * 2 + 2


def test_snf_invariant_under_transpose():
    rng = random.Random(517)
    for _ in range(40):
        rows = random_matrix_rows(rng)
        transposed = [list(col) for col in zip(*rows)]
        a = smith_normal_form(IntMatrix.from_rows(rows))
        b = smith_normal_form(IntMatrix.from_rows(transposed, cols=len(rows)))
        assert a == b


# --------------------------------------------------------------------------
# chain complexes


def moore_complex(q):
    """Cells in dimensions 0, 1, 2; the 2-cell wraps q times."""
    return [IntMatrix.zero(1, 1), IntMatrix.from_rows([[q]])]


def test_moore_complexes_match_closed_form():
    for q in range(2, 51):
        assert chain_homology(moore_complex(q)) == homology_of_term(Moore(2, q))


def test_top_moore_complex():
    # Cells in dimensions 0, 3, 4; boundary of the top cell has degree q.
    boundaries = [
        IntMatrix.zero(1, 0),
        IntMatrix.zero(0, 0),
        IntMatrix.zero(0, 1),
        IntMatrix.from_rows([[7]]),
    ]
    assert chain_homology(boundaries) == homology_of_term(Moore(4, 7))


def test_sphere_product_complex():
    # S^2 x S^2: one 0-cell, two 2-cells, one 4-cell, all boundaries zero.
    boundaries = [
        IntMatrix.zero(1, 0),
        IntMatrix.zero(0, 2),
        IntMatrix.zero(2, 0),
        IntMatrix.zero(0, 1),
    ]
    expected = homology_of_manifold(ManifoldSpec(Pi1Descriptor(), 2, True))
    assert chain_homology(boundaries) == expected


def cp2_complex():
    # One cell in dimensions 0, 2, 4; no boundaries.
    return [
        IntMatrix.zero(1, 0),
        IntMatrix.zero(0, 1),
        IntMatrix.zero(1, 0),
        IntMatrix.zero(0, 1),
    ]


def test_cp2_complex_matches_closed_form():
    expected = homology_of_manifold(ManifoldSpec(Pi1Descriptor(), 1, False))
    assert chain_homology(cp2_complex()) == expected


def test_suspended_cp2_complex_is_the_scp2_term():
    assert suspend(chain_homology(cp2_complex())) == homology_of_term(SuspCP2())


def test_torus_and_klein_bottle_complexes():
    torus = [IntMatrix.zero(1, 2), IntMatrix.zero(2, 1)]
    assert chain_homology(torus) == GradedAbelianGroup.of(
        {0: (1, ()), 1: (2, ()), 2: (1, ())}
    )
    klein = [IntMatrix.zero(1, 2), IntMatrix.from_rows([[0], [2]])]
    assert chain_homology(klein) == GradedAbelianGroup.of({0: (1, ()), 1: (1, (2,))})


def test_chain_complex_rejections():
    with pytest.raises(ChainComplexError):
        chain_homology([IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]])])
    with pytest.raises(ChainComplexError):
        chain_homology([IntMatrix.zero(1, 2), IntMatrix.zero(1, 1)])
    with pytest.raises(ChainComplexError):
        chain_homology([])
    with pytest.raises(ChainComplexError):
        chain_homology([IntMatrix.zero(1, 1)] * 6)


def test_random_two_step_complexes_satisfy_euler_count():
    # For any valid complex, the alternating sums of cell counts and of
    # homology ranks agree.
    rng = random.Random(99)
    built = 0
    while built < 30:
        c1 = rng.randint(0, 3)
        d1 = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(c1)]], cols=c1)
        # pick d2 with columns in the kernel of d1: scale of obvious relations
        c2 = rng.randint(0, 2)
        rows2 = [[0] * c2 for _ in range(c1)]
        d2 = IntMatrix.from_rows(rows2, cols=c2)
        g = chain_homology([d1, d2])
        cells = 1 - c1 + c2
        built += 1
        assert g.euler_characteristic == cells


# --------------------------------------------------------------------------
# graded groups, closed-form manifold homology, suspension


def test_torsion_entries_are_split_into_prime_powers():
    g = GradedAbelianGroup.of({1: (0, (12,))})
    assert g.torsion(1) == (3, 4)
    h = GradedAbelianGroup.of({1: (0, (4, 3))})
    assert g == h


def test_manifold_homology_closed_form():
    spec = ManifoldSpec(Pi1Descriptor(2, ((3, 2), (5, 1))), 3, True)
    g = homology_of_manifold(spec)
    assert g == GradedAbelianGroup.of(
        {
            0: (1, ()),
            1: (2, (9, 5)),
            2: (3, (9, 5)),
            3: (2, ()),
            4: (1, ()),
        }
    )


def test_euler_characteristic_formula():
    rng = random.Random(3)
    for _ in range(150):
        spec = random_spec(rng)
        g = homology_of_manifold(spec)
        assert g.euler_characteristic == 2 - 2 * spec.pi1.free_rank + spec.b2


def test_duality_profile():
    rng = random.Random(4)
    for _ in range(80):
        g = homology_of_manifold(random_spec(rng))
        assert g.rank(0) == g.rank(4) == 1
        assert g.torsion(0) == g.torsion(4) == ()
        assert g.rank(1) == g.rank(3)
        assert g.torsion(1) == g.torsion(2)
        assert g.torsion(3) == ()
        assert g.rank(5) == 0


def test_wedge_homology_is_additive():
    def direct_sum(*parts: GradedAbelianGroup) -> GradedAbelianGroup:
        # degree by degree: ranks add, torsion lists concatenate
        return GradedAbelianGroup(tuple(
            (sum(rank for rank, _ in groups), sum((torsion for _, torsion in groups), ()))
            for groups in zip(*(g.groups for g in parts))
        ))

    rng = random.Random(5)
    for _ in range(100):
        a = Sphere(rng.randint(1, 5))
        b = Moore(rng.randint(2, 5), rng.randint(2, 20))
        combined = homology_of_term(wedge([a, b, SuspCP2()]))
        # reduced parts add; the base Z in degree 0 is counted once
        total = direct_sum(homology_of_term(a), homology_of_term(b), homology_of_term(SuspCP2()))
        expected_groups = list(total.groups)
        expected_groups[0] = (expected_groups[0][0] - 2, expected_groups[0][1])
        assert combined == GradedAbelianGroup(tuple(expected_groups))


def test_wedge_of_many_moore_spaces_is_one_pass(hang_guard):
    # 1 600 cyclic factors give 3 200 Moore summands; summing their groups
    # one by one re-split all the torsion so far at every step (10 s).
    factors = tuple(((3, 5, 7, 11)[i % 4], 1 + i % 3) for i in range(1600))
    spec = ManifoldSpec(Pi1Descriptor(0, factors), 4, True)
    moduli = sorted(p**r for p, r in factors)
    term = wedge([Sphere(5), *[Sphere(3)] * 4]
                 + [Moore(dim, q) for q in moduli for dim in (3, 4)])
    start = time.perf_counter()
    got = homology_of_term(term)
    assert time.perf_counter() - start < 1.0
    assert got == GradedAbelianGroup.of(
        {0: (1, ()), 2: (0, moduli), 3: (4, moduli), 5: (1, ())}
    )
    assert got == suspend(homology_of_manifold(spec))


def test_suspend_shifts_reduced_part():
    g = GradedAbelianGroup.of({0: (1, ()), 1: (2, (3,)), 4: (1, ())})
    assert suspend(g) == GradedAbelianGroup.of({0: (1, ()), 2: (2, (3,)), 5: (1, ())})


def test_suspend_splits_extra_components_into_degree_one():
    g = GradedAbelianGroup.of({0: (3, ())})
    assert suspend(g) == GradedAbelianGroup.of({0: (1, ()), 1: (2, ())})


def test_suspend_rejects_top_degree():
    g = suspend(homology_of_manifold(ManifoldSpec(Pi1Descriptor(), 2, True)))
    assert g.rank(5) == 1
    with pytest.raises(ValueError):
        suspend(g)


def test_render_graded():
    g = GradedAbelianGroup.of({0: (1, ()), 1: (2, (3, 9)), 3: (1, ())})
    assert render_graded(g).splitlines() == [
        "H_0 = Z",
        "H_1 = Z^2 + Z/3 + Z/9",
        "H_2 = 0",
        "H_3 = Z",
        "H_4 = 0",
        "H_5 = 0",
    ]


# --------------------------------------------------------------------------
# matrix grammar


def test_parse_matrix():
    assert parse_matrix("[[1,0],[0,1]]") == IntMatrix.from_rows([[1, 0], [0, 1]])
    assert parse_matrix("[]") == IntMatrix.from_rows([], cols=0)
    assert parse_matrix("[[],[]]") == IntMatrix.from_rows([[], []], cols=0)
    assert parse_matrix(" [[2, -3]] ") == IntMatrix.from_rows([[2, -3]])


def test_parse_matrix_rejections():
    for bad in ["[[1,0],[0", "[[1],[2,3]]", "[[1.5]]", '[["x"]]', "5", "[[true]]"]:
        with pytest.raises(ValueError):
            parse_matrix(bad)


def test_parse_matrix_rejects_deep_nesting():
    with pytest.raises(ValueError, match="bad matrix syntax"):
        parse_matrix("[" * 5000 + "]" * 5000)
