"""Smith normal form against a minors oracle; chain complexes against
closed-form homology; the suspension shift."""

import ast
import hashlib
import json
import random
import sys
import time
from itertools import combinations, product
from math import gcd, prod
from pathlib import Path

import pytest

import oracles
from conftest import graded, handle_complex, line_events, random_matrix_rows, random_spec
from gauge4 import (
    ChainComplexError,
    GradedAbelianGroup,
    IntMatrix,
    ManifoldSpec,
    Moore,
    Pi1Descriptor,
    Sphere,
    SuspCP2,
    Wedge,
    chain_homology,
    homology_of_manifold,
    homology_of_term,
    parse_matrix,
    smith_normal_form,
    suspend,
)
from gauge4 import homology
from gauge4.cli import run
from gauge4.homology import MAX_DEGREE, render_graded
from gauge4.value import integer


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


def snf_pair(rows):
    """The invariant factors and the rank of the SNF of rows, as a pair."""
    snf = smith_normal_form(IntMatrix.from_rows(rows))
    return snf.invariant_factors, snf.rank


def check_against_minors(rows, factors=None):
    """Check the SNF of rows, or the invariant factors one route gave."""
    if factors is None:
        factors, rank = snf_pair(rows)
        assert rank == len(factors)
    rank = len(factors)
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
        ([[0, 7, 0]], (7,)),
    ]
    for rows, expected in cases:
        assert smith_normal_form(IntMatrix.from_rows(rows)).invariant_factors == expected
    # and the degenerate shapes 0 x 0, 1 x 0 and 0 x 3
    for mat in (IntMatrix.from_rows([], cols=0), IntMatrix.from_rows([[]], cols=0),
                IntMatrix.zero(0, 3)):
        assert smith_normal_form(mat).invariant_factors == ()


def test_an_snf_result_is_a_value_of_its_factors_and_rank():
    # a Value like every other result, so it neither unpacks nor equals a plain pair
    snf = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert type(snf) is homology.SNFResult
    assert repr(snf) == "SNFResult(invariant_factors=(2, 4), rank=2)"
    assert (snf.invariant_factors, snf.rank) == ((2, 4), 2) and snf != ((2, 4), 2)
    assert homology.SNFResult(rank=2, invariant_factors=(2, 4)) == snf


def test_snf_matches_minor_oracle():
    rng = random.Random(20213)
    for _ in range(80):
        check_against_minors(random_matrix_rows(rng))


def modulo_d(rows):
    """The invariant factors by the modulo-D route of smith_normal_form, called directly."""
    rank, det, _ = homology._rank_and_minor(rows)
    return homology._diagonalize(rows, det, rank)


def test_snf_modulo_d_matches_minor_oracle():
    # Square nonsingular inputs take the trailing-minor route in
    # smith_normal_form, so the modulo-D route is called directly.
    rng = random.Random(20214)
    for _ in range(80):
        rows = random_matrix_rows(rng)
        check_against_minors(rows, modulo_d(rows))
    for rows, expected in [([[6]], [6]), ([[2, 4], [6, 8]], [2, 4]), ([[4, 6], [6, 9]], [1]),
                           ([[2, 0], [0, 3]], [1, 6]), ([[0, 7, 0]], [7])]:
        assert modulo_d(rows) == expected


def test_snf_matches_minor_oracle_on_rectangular_and_low_rank():
    # Products of m x k and k x n factors: rectangular, and singular when
    # k is below both sides, so nearly all go modulo D.
    rng = random.Random(77)
    for _ in range(150):
        m, n, k = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 4)
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
        right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        check_against_minors([[sum(left[i][x] * right[x][j] for x in range(k))
                               for j in range(n)] for i in range(m)])


def test_snf_trailing_minor_route_pinned_examples():
    # (rows, g, invariant factors): g = 1 answers at once; a composite g
    # above d1 * ... * d(n-1) is eliminated modulo g; a d_i equal to g reads
    # as 0 modulo g.  Zero rows and columns are dropped before the route.
    cases = [
        ([[2, 1], [1, 3]], 1, (1, 5)),
        ([[1, 2, 3], [4, 5, 6], [7, 8, 10]], 1, (1, 1, 3)),
        ([[7]], 1, (7,)),
        ([[2, 0, 0], [0, 3, 0], [0, 0, 9]], 6, (1, 3, 18)),
        ([[3, 0], [0, 15]], 3, (3, 15)),
        ([[1, 0, 0], [0, 3, 0], [0, 0, 3]], 3, (1, 3, 3)),
        ([[6, 0], [0, 12]], 6, (6, 12)),
        ([[4, 0, 0], [0, 4, 0], [0, 0, 4]], 16, (4, 4, 4)),
    ]
    for rows, g, expected in cases:
        assert homology._rank_and_minor(rows) == (len(rows), prod(expected), g)
        padded = [row + [0] for row in rows] + [[0] * (len(rows) + 1)]
        assert snf_pair(padded) == (expected, len(expected))
    # A singular square has rank below its side, so it goes modulo D.
    assert homology._rank_and_minor([[1, 2], [2, 4]]) == (1, 1, 1)
    assert snf_pair([[1, 2], [2, 4]]) == ((1,), 1)


def divisor_chain(rows):
    """Invariant factors of a matrix with 2 or 3 rows and 2 or 3 columns from
    its determinantal divisors, the gcds of its k x k minors; Bareiss gives
    the determinant of a 3 x 3."""
    row_pairs = list(combinations(range(len(rows)), 2))
    col_pairs = list(combinations(range(len(rows[0])), 2))
    deltas = [1, gcd(*(v for row in rows for v in row)),
              gcd(*(rows[i][k] * rows[j][m] - rows[i][m] * rows[j][k]
                    for i, j in row_pairs for k, m in col_pairs))]
    if len(rows) == len(rows[0]) == 3:
        deltas.append(abs(oracles.bareiss(rows)[1]))
    deltas = deltas[:deltas.index(0)] if 0 in deltas else deltas
    return [b // a for a, b in zip(deltas, deltas[1:])]


def test_snf_box_on_every_route(hang_guard):
    # The box: every 3 x 3 matrix over {-1, 0, 1} and every 2 x 2 over
    # [-4, 4], 26 244 in all, each through smith_normal_form (the
    # trailing-minor route when nonsingular) and through the modulo-D route.
    box = [(v[:3], v[3:6], v[6:]) for v in product((-1, 0, 1), repeat=9)]
    box += [(v[:2], v[2:]) for v in product(range(-4, 5), repeat=4)]
    assert len(box) == 26244
    for rows in box:
        expected = divisor_chain(rows)
        assert snf_pair(rows) == (tuple(expected), len(expected)), rows
        assert modulo_d(rows) == expected, rows


def test_snf_non_square_box(hang_guard):
    # Every 2 x 3 and 3 x 2 matrix over [-2, 2], 31 250 in all: shapes
    # that always take the modulo-D route.
    box = [(v[:3], v[3:]) for v in product(range(-2, 3), repeat=6)]
    box += [(v[:2], v[2:4], v[4:]) for v in product(range(-2, 3), repeat=6)]
    assert len(box) == 31250
    for rows in box:
        expected = divisor_chain(rows)
        assert snf_pair(rows) == (tuple(expected), len(expected)), rows


def snf_stream_digest():
    """SHA-256 of the SNFs of a seeded stream: two dense matrices per side 1-16 in
    each of [-9, 9] and [-10**6, 10**6], a third with two rows scaled by a planted
    factor, then one dense 64 x 64 over [-9, 9]."""
    rng = random.Random(4)
    digest = hashlib.sha256()
    shapes = [(n, bound) for n in range(1, 17) for bound in (9, 10**6) for _ in range(2)]
    for i, (n, bound) in enumerate(shapes + [(64, 9)]):
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if i % 3 == 0 and n > 1:
            f = rng.choice((3, 5, 9, 27))
            for r in rng.sample(range(n), 2):
                rows[r] = [f * v for v in rows[r]]
        digest.update(repr(snf_pair(rows)).encode())
    return digest.hexdigest()


def test_snf_seeded_stream_matches_the_elimination_before_the_trailing_route(hang_guard):
    # The digest pins the invariant factors of the whole stream as an
    # elimination over Z with no trailing-minor route recorded them, so a
    # factor that either route changes fails here.
    assert snf_stream_digest() == "47313f7d5551cdb826783c0c9e377d63c95888576db7edb0b143c43749a90eb7"


# --------------------------------------------------------------------------
# SNF sweep over dense matrices, with an oracle that factors nothing


#: (rows, columns, count, seed, singular): a singular matrix has its last
#: row replaced by the sum of the first two.
SWEEP = [(4, 4, 25, 4, False), (6, 6, 25, 6, False), (7, 7, 25, 7, False),
         (8, 8, 25, 8, False), (12, 12, 8, 12, False), (16, 16, 4, 16, False),
         (32, 32, 2, 32, False), (8, 12, 8, 812, False), (16, 20, 4, 1620, False),
         (20, 16, 4, 2016, False), (32, 40, 2, 3240, False), (32, 32, 2, 3232, True)]


def sweep_matrices(m, n, count, seed, singular):
    """The dense m x n matrices over [-9, 9] of one SWEEP row, as lists of rows."""
    rng = random.Random(seed)
    for _ in range(count):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        if singular:
            rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
        yield rows


@pytest.mark.parametrize("m,n,count,seed,singular", SWEEP,
                         ids=[f"{m}x{n}" + "-singular" * s for m, n, _, _, s in SWEEP])
def test_snf_sweep_on_dense_matrices(hang_guard, m, n, count, seed, singular):
    for rows in sweep_matrices(m, n, count, seed, singular):
        start = time.process_time()
        factors, rank = snf_pair(rows)
        assert time.process_time() - start < 1.0
        # The column pass and the row pass differ, so the transpose is a check.  Beside
        # the clock, its line events in gauge4 frames, at most 6.1 m n min(m, n) when
        # written (at 4 x 4), gated at 8 m n min(m, n): the elimination is cubic.
        transposed, limit = [], 8 * m * n * min(m, n)
        assert line_events(lambda: transposed.append(snf_pair(list(zip(*rows)))),
                           limit=limit) <= limit
        assert transposed == [(factors, rank)]
        assert rank == len(factors)
        assert all(d > 0 for d in factors)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
        q_rank, det = oracles.bareiss(rows)
        assert rank == q_rank
        if det:
            assert prod(factors) == abs(det)
        for p in (2, 3, 5, 7):
            assert sum(1 for d in factors if d % p == 0) == rank - oracles.rank_mod_p(rows, p)


def test_the_oracles_import_nothing_from_gauge4():
    # The sweep's Bareiss and rank mod p are bench/oracles.py's, shared with the
    # benchmark; they are an independent check only while that module reads no gauge4.
    tree = ast.parse(Path(oracles.__file__).read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert modules
    assert all(name.split(".")[0] in sys.stdlib_module_names for name in modules), modules


# --------------------------------------------------------------------------
# conjugated cellular chain complexes


def test_conjugated_complexes_with_three_coprime_moduli(hang_guard):
    # Z^{*2} * Z/125 * Z/343 * Z/169 with b2 = 2: d3 is 8 x 5 with rank 3,
    # rectangular and singular, so it goes modulo D, the bound that keeps
    # its entries from running away.
    spec = ManifoldSpec(Pi1Descriptor(2, ((5, 3), (7, 3), (13, 2))), 2, True)
    expected = homology_of_manifold(spec)
    rng = random.Random(27)
    for _ in range(200):
        g = chain_homology(handle_complex(rng, spec))
        assert g == expected
        assert sum((-1) ** i * rank for i, (rank, _) in enumerate(g.groups)) == 2 - 2 * 2 + 2


def spy_on_the_fraction_free_pass(monkeypatch) -> list:
    """The rows of each call of _rank_and_minor from now on, in a list."""
    calls = []
    rank_and_minor = homology._rank_and_minor
    monkeypatch.setattr(homology, "_rank_and_minor",
                        lambda rows: calls.append(rows) or rank_and_minor(rows))
    return calls


def test_chain_homology_eliminates_only_nonzero_boundaries(hang_guard, monkeypatch):
    # A spy on the one fraction-free pass, counts for b2 = 0, 1 and 4: the handle complex
    # of a trivial or free pi1 has four zero boundaries, and none is eliminated.  One
    # cyclic factor and no free rank gives d2 one row and d3 one column, answered by their
    # gcds; with free rank 2 the conjugation spreads its rank-1 d2 and d3 over several
    # rows and columns, which seed 38 makes two lines or more in all but one d3.  Two
    # cyclic factors give d2 and d3 of rank 2, each eliminated once.
    calls = spy_on_the_fraction_free_pass(monkeypatch)
    rng = random.Random(38)
    for pi1, eliminated in [(Pi1Descriptor(), [0, 0, 0]), (Pi1Descriptor(3, ()), [0, 0, 0]),
                            (Pi1Descriptor(0, ((3, 2),)), [0, 0, 0]),
                            (Pi1Descriptor(2, ((5, 1),)), [2, 1, 2]),
                            (Pi1Descriptor(0, ((3, 1), (5, 1))), [2, 2, 2])]:
        for b2, count in zip((0, 1, 4), eliminated):
            spec = ManifoldSpec(pi1, b2, True)
            calls.clear()
            assert chain_homology(handle_complex(rng, spec)) == homology_of_manifold(spec)
            assert len(calls) == count, (spec, len(calls))
    monkeypatch.undo()
    # Line events in gauge4 frames, not a clock: the all-zero complex of S^4 costs
    # fewer than 120, and a larger all-zero complex one more per boundary row, the
    # scan for its nonzero rows, so no d.d column is built for a zero boundary.
    small, large = (handle_complex(rng, ManifoldSpec(Pi1Descriptor(m, ()), b2, True))
                    for m, b2 in ((0, 0), (3, 4)))
    rows = [sum(b.rows for b in boundaries) for boundaries in (small, large)]
    assert rows == [1, 11]
    once, grown = line_events(chain_homology, small), line_events(chain_homology, large)
    assert once < 120 and grown - once <= rows[1] - rows[0], (once, grown)


def test_one_line_boundaries_skip_the_fraction_free_pass_at_one_event_per_column(monkeypatch):
    # Line events in gauge4 frames, not a clock.  The torsion complex of Z/9 at b2 has d2
    # one row and d3 one column, b2 + 2 long: neither reaches the fraction-free pass, and
    # each added column costs one event, d3's row in the scan for nonzero rows (148 events
    # at b2 = 4, 544 at b2 = 400).  Sending one-line boundaries to the fraction-free pass
    # fails both gates: 4 calls, and 222 and 1 062 events.
    calls = spy_on_the_fraction_free_pass(monkeypatch)
    rng = random.Random(40)
    small, large = (handle_complex(rng, ManifoldSpec(Pi1Descriptor(0, ((3, 2),)), b2, True))
                    for b2 in (4, 400))
    assert [b.cols for b in small[1:3]] == [6, 1] and [b.rows for b in large[1:3]] == [1, 402]
    once, grown = line_events(chain_homology, small), line_events(chain_homology, large)
    assert once < 160 and grown - once <= 402 - 6, (once, grown)
    assert len(calls) == 0, calls
    monkeypatch.undo()
    assert chain_homology(large) == homology_of_manifold(ManifoldSpec(
        Pi1Descriptor(0, ((3, 2),)), 400, True))


def test_chain_homology_answers_in_the_checking_constructors_normal_form(hang_guard):
    # chain_homology builds its group as given, so each degree must already be what the
    # checking constructor makes of it: sorted torsion entries above 1, no unit factor.
    # The groups are compared as tuples before any equality of graded groups, which
    # would refine a unit factor forever.  The sample: 300 seeded conjugated handle
    # complexes, free rank 0-2, 1-3 cyclic factors from {3, 5, 9, 25, 27} and b2 0-4,
    # then each dense matrix of the SNF sweep as a one-boundary complex.
    rng = random.Random(47)
    sample = []
    for _ in range(300):
        moduli = tuple((q, 1) for q in rng.choices((3, 5, 9, 25, 27), k=rng.randint(1, 3)))
        spec = ManifoldSpec(Pi1Descriptor(rng.randint(0, 2), moduli), rng.randint(0, 4), True)
        sample.append((handle_complex(rng, spec), homology_of_manifold(spec)))
    sample += [([IntMatrix.from_rows(rows)], None)
               for row in SWEEP for rows in sweep_matrices(*row)]
    units = 0
    for boundaries, expected in sample:
        g = chain_homology(boundaries)
        assert GradedAbelianGroup(g.groups).groups == g.groups, boundaries
        assert expected is None or g == expected
        units += any(1 in smith_normal_form(b).invariant_factors for b in boundaries)
    assert units > 200, units  # 258 of the 434 complexes have a unit factor to drop


def test_chain_homology_builds_its_group_in_one_pass():
    # Line events in gauge4 frames, not a clock: the conjugated complex of Z * Z/9 at
    # b2 = 4 costs 181 with the group built from the factors as found, and 240 when
    # the checking constructor checks every rank and entry again; gated between them.
    spec = ManifoldSpec(Pi1Descriptor(1, ((3, 2),)), 4, True)
    boundaries = handle_complex(random.Random(47), spec)
    assert line_events(chain_homology, boundaries, limit=200) <= 200
    assert chain_homology(boundaries) == homology_of_manifold(spec)


def test_the_last_factor_asked_for_is_the_gcd_of_m_and_the_block_left():
    # After count - 1 pivots, the gcd of m and the entries left as they stand, m when m
    # divides them all, as the zero-block exit pads each factor left with m.
    assert homology._diagonalize([[6, -12, 18]], 6, 1) == [6]
    assert homology._diagonalize([[4], [10]], 6, 1) == [2]
    assert homology._diagonalize([[1, 0], [0, 12], [0, 6]], 6, 2) == [1, 6]
    assert homology._diagonalize([[2, 0], [0, 0]], 4, 1) == [2]
    assert homology._diagonalize([[0, 0, 0]], 6, 1) == [6]
    # The trailing route asks for n - 1 factors modulo g and takes no pivot step for
    # the last: diag(2, 3, 9) has g = 6, d1 = 1 and d2 = gcd(6, the 2 x 2 block left) = 3.
    assert homology._diagonalize([[2, 0, 0], [0, 3, 0], [0, 0, 9]], 6, 2) == [1, 3]
    assert homology._diagonalize([[2, 4], [6, 8]], 8, 1) == [2]
    # A block that is 0 modulo m before the last factor gives m for each factor left,
    # and m = 1 gives 1 for each with no elimination.
    assert homology._diagonalize([[4, 0], [0, 8]], 4, 2) == [4, 4]
    assert homology._diagonalize([[1, 0, 2], [0, 4, 0], [0, 0, 8]], 4, 3) == [1, 4, 4]
    assert homology._diagonalize([[2, 4], [6, 8]], 1, 2) == [1, 1]


def test_one_line_and_rank_one_box(hang_guard):
    # Every 1 x n and n x 1 matrix over [-3, 3] for n <= 4, 5 600 in all, and every
    # rank-1 product u v^T with u, v in [-2, 2]^3, 15 625 more: each has one invariant
    # factor, the gcd of its entries, or none when it is zero.
    box = [(v,) for n in range(1, 5) for v in product(range(-3, 4), repeat=n)]
    box += [tuple((x,) for x in v) for n in range(1, 5) for v in product(range(-3, 4), repeat=n)]
    assert len(box) == 5600
    cube = list(product(range(-2, 3), repeat=3))
    box += [tuple(tuple(x * y for y in v) for x in u) for u in cube for v in cube]
    for rows in box:
        d1 = gcd(*(v for row in rows for v in row))
        assert snf_pair(rows) == (((d1,), 1) if d1 else ((), 0)), rows


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
    assert chain_homology(torus) == graded(
        {0: (1, ()), 1: (2, ()), 2: (1, ())}
    )
    klein = [IntMatrix.zero(1, 2), IntMatrix.from_rows([[0], [2]])]
    assert chain_homology(klein) == graded({0: (1, ()), 1: (1, (2,))})


def test_chain_complex_rejections():
    with pytest.raises(ChainComplexError):
        chain_homology([IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]])])
    with pytest.raises(ChainComplexError):
        chain_homology([IntMatrix.zero(1, 2), IntMatrix.zero(1, 1)])
    with pytest.raises(ChainComplexError):
        chain_homology([])
    with pytest.raises(ChainComplexError):
        chain_homology([IntMatrix.zero(1, 1)] * 6)
    # d1.d2 is zero but for its last, bottom-right entry.
    d1 = IntMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
    d2 = IntMatrix.from_rows([[1, 0], [-1, 0], [1, 1]])
    with pytest.raises(ChainComplexError, match="d1.d2 != 0"):
        chain_homology([d1, d2])
    # An inner dimension of 0 makes d1.d2 the 2 x 3 zero matrix: a complex.
    assert chain_homology([IntMatrix.zero(2, 0), IntMatrix.zero(0, 3)]) == graded(
        {0: (2, ()), 2: (3, ())}
    )


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
        assert sum((-1) ** i * rank for i, (rank, _) in enumerate(g.groups)) == cells


def test_torsion_past_2_64_goes_through_chain_homology(hang_guard):
    # A seeded dense 20 x 20 boundary whose last invariant factor has 80
    # bits: the torsion is kept as the SNF gives it, never factored.
    rng = random.Random(5)
    d1 = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(20)] for _ in range(20)])
    factors = smith_normal_form(d1).invariant_factors
    g = chain_homology([d1])
    assert g.groups[0][1] == tuple(d for d in factors if d > 1) == (855460983064475659038433,)
    assert (g.groups[0][0], g.groups[1][0]) == (0, 0)
    assert g == graded({0: (0, factors)}) and len({g, graded({0: (0, factors)})}) == 1


# --------------------------------------------------------------------------
# graded groups, closed-form manifold homology, suspension


def test_torsion_entries_are_kept_and_compared_by_invariant_factors():
    g = graded({1: (0, (12,))})
    assert g.groups[1][1] == (12,)
    h = graded({1: (0, (4, 3))})
    assert h.groups[1][1] == (3, 4)
    # Z/12 is Z/4 + Z/3: equal and hashed alike, though the reprs differ.
    assert g == h and hash(g) == hash(h) and repr(g) != repr(h)
    # An entry of 1 is Z/1, no torsion, as chain_homology hands it over; a sign is dropped.
    assert graded({1: (0, (1, 12, -1))}).groups[1][1] == (12,)
    g = graded({1: (0, (12, -12)), 2: (1, (12,))})
    assert (g.groups[1][1], g.groups[2][1]) == ((12, 12), (12,))
    assert g == graded({1: (0, (3, 4, 4, 3)), 2: (1, (4, 3))})
    assert g != graded({1: (0, (144,)), 2: (1, (12,))})
    with pytest.raises(ValueError, match="^torsion entry must be nonzero, got 0$"):
        graded({1: (0, (3, 0))})


def primary_parts(torsion):
    """The reference: the prime powers of a sum of Z/q, by trial division, sorted."""
    parts = []
    for q in torsion:
        p = 2
        while q > 1:
            power = 1
            while q % p == 0:
                q //= p
                power *= p
            if power > 1:
                parts.append(power)
            p += 1
    return sorted(parts)


def regroup(rng, parts):
    """Another multiset with the same prime powers: each part joins a random
    entry it is coprime to, or starts one of its own."""
    entries = []
    for part in rng.sample(parts, len(parts)):
        i = rng.randrange(len(entries) + 1)
        if i < len(entries) and gcd(entries[i], part) == 1:
            entries[i] *= part
        else:
            entries.append(part)
    return entries


def test_graded_equality_and_hash_match_a_primary_decomposition():
    def group(torsion):
        return graded({1: (2, torsion)})

    for a, b in [((4,), (2, 2)), ((6, 6), (36,)), ((8, 2), (4, 4)), ((9, 3), (27,)),
                 ((2, 3), (5,)), ((12, 18), (6, 6, 6))]:
        assert group(a) != group(b)
    assert group((12, 18)) == group((36, 6)) == group((4, 9, 2, 3))
    assert len({group((6,)), group((2, 3))}) == 1
    rng = random.Random(32)
    by_group = {}
    previous, previous_parts = group(()), []
    for _ in range(5000):
        torsion = [rng.randint(2, 98) for _ in range(rng.randint(0, 6))]
        parts = primary_parts(torsion)
        g, h = group(torsion), group(regroup(rng, parts))
        assert g == h and hash(g) == hash(h)
        assert (g == previous) == (parts == previous_parts)
        assert by_group.setdefault(g, parts) == parts
        previous, previous_parts = g, parts
    assert len(by_group) == len({tuple(parts) for parts in by_group.values()})


def test_manifold_homology_closed_form():
    spec = ManifoldSpec(Pi1Descriptor(2, ((3, 2), (5, 1))), 3, True)
    g = homology_of_manifold(spec)
    assert g == graded(
        {
            0: (1, ()),
            1: (2, (9, 5)),
            2: (3, (9, 5)),
            3: (2, ()),
            4: (1, ()),
        }
    )


def test_manifold_homology_and_its_suspension_refine_nothing(monkeypatch, capsys):
    # The descriptor holds each p and r, and suspend moves the torsion as
    # it is, so no invariant factor is computed on the way to the bytes.
    calls = []
    refine = homology._invariant_factors
    monkeypatch.setattr(homology, "_invariant_factors", lambda t: calls.append(t) or refine(t))
    p = 2**61 - 1
    argv = ["homology", "--pi1", f"Z/{p}*Z/9*Z/5*Z", "--b2", "2", "--suspension"]
    assert run(argv) == run(argv + ["--json"]) == 0
    assert calls == []
    torsion = [5, 9, p]
    assert capsys.readouterr().out == (
        f"H_0 = Z\nH_1 = 0\nH_2 = Z + Z/5 + Z/9 + Z/{p}\n"
        f"H_3 = Z^2 + Z/5 + Z/9 + Z/{p}\nH_4 = Z\nH_5 = Z\n"
        + json.dumps({"homology": [
            {"degree": 0, "rank": 1, "torsion": []},
            {"degree": 1, "rank": 0, "torsion": []},
            {"degree": 2, "rank": 1, "torsion": torsion},
            {"degree": 3, "rank": 2, "torsion": torsion},
            {"degree": 4, "rank": 1, "torsion": []},
            {"degree": 5, "rank": 1, "torsion": []},
        ]}) + "\n"
    )
    spec = ManifoldSpec(Pi1Descriptor(1, ((p, 1), (3, 2), (5, 1))), 2, True)
    closed = suspend(homology_of_manifold(spec))
    assert calls == []
    assert closed == GradedAbelianGroup(closed.groups)  # what the checking constructor gives
    assert closed.groups[2][1] == (5, 9, p)


def test_duality_profile():
    rng = random.Random(4)
    for _ in range(80):
        g = homology_of_manifold(random_spec(rng))
        assert g.groups[0][0] == g.groups[4][0] == 1
        assert g.groups[0][1] == g.groups[4][1] == ()
        assert g.groups[1][0] == g.groups[3][0]
        assert g.groups[1][1] == g.groups[2][1]
        assert g.groups[3][1] == ()
        assert g.groups[5][0] == 0


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
        combined = homology_of_term(Wedge([(a, 1), (b, 1), (SuspCP2(), 1)]))
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
    term = Wedge([(Sphere(5), 1), *[(Sphere(3), 1)] * 4]
                 + [(Moore(dim, q), 1) for q in moduli for dim in (3, 4)])
    # Beside the clock, line events in gauge4 frames, the same on every machine:
    # 180 at the time of writing, gated at 225.
    assert line_events(homology_of_term, term, limit=225) <= 225
    start = time.perf_counter()
    got = homology_of_term(term)
    assert time.perf_counter() - start < 1.0
    assert got == graded(
        {0: (1, ()), 2: (0, moduli), 3: (4, moduli), 5: (1, ())}
    )
    assert got == suspend(homology_of_manifold(spec))


def test_term_homology_reaches_degree_five_and_no_further():
    # P^6(q) has its Z/q in degree 5; S^6 and P^7(q) each reach degree 6,
    # and the refusal names the degree, not the dimension.
    assert homology_of_term(Moore(6, 9)) == graded({0: (1, ()), 5: (0, (9,))})
    assert homology_of_term(Moore(2, 6)).groups[1][1] == (6,)  # kept as it is, not split
    assert homology_of_term(Wedge([(Moore(6, 12), 1), (Sphere(5), 1)])) == graded(
        {0: (1, ()), 5: (1, (3, 4))})
    for term in (Sphere(6), Moore(7, 9), Wedge([(Sphere(3), 1), (Moore(7, 9), 1)])):
        with pytest.raises(ValueError, match=r"^degree 6 outside 0\.\.5$"):
            homology_of_term(term)


def test_term_homology_checks_per_block_not_per_copy(monkeypatch):
    # 10^5 copies of P^3(12) are one block: its modulus is written as it
    # is, and no torsion entry goes through the constructor's per-entry check.
    checks = []
    check = homology.integer
    monkeypatch.setattr(homology, "integer", lambda *args: checks.append(args) or check(*args))
    g = homology_of_term(Wedge(((Sphere(5), 1), (Moore(3, 12), 10**5))))
    assert g.groups[2][1] == (12,) * 10**5
    assert (g.groups[0][0], g.groups[5][0]) == (1, 1)
    assert len(checks) <= 6
    assert g == graded({0: (1, ()), 2: (0, (3, 4) * 10**5), 5: (1, ())})


def test_suspend_shifts_reduced_part():
    g = graded({0: (1, ()), 1: (2, (3,)), 4: (1, ())})
    assert suspend(g) == graded({0: (1, ()), 2: (2, (3,)), 5: (1, ())})


def test_suspend_splits_extra_components_into_degree_one():
    g = graded({0: (3, ())})
    assert suspend(g) == graded({0: (1, ()), 1: (2, ())})


def test_suspend_rejects_top_degree():
    g = suspend(homology_of_manifold(ManifoldSpec(Pi1Descriptor(), 2, True)))
    assert g.groups[5][0] == 1
    with pytest.raises(ValueError):
        suspend(g)


def test_graded_groups_refuse_a_wrong_shape():
    with pytest.raises(ValueError, match="^expected 6 degrees, got 5$"):
        GradedAbelianGroup(((0, ()),) * 5)
    with pytest.raises(ValueError, match=r"^degree 6 outside 0\.\.5$"):
        graded({6: (1, ())})
    with pytest.raises(ValueError, match="^cannot suspend an empty space: degree 0 is zero$"):
        suspend(graded({}))


def reference_groups(groups):
    """The groups the checking constructor built before a degree with empty torsion
    took a path of its own: its loop as it was, kept unchanged as the reference."""
    if len(groups) != MAX_DEGREE + 1:
        raise ValueError(f"expected {MAX_DEGREE + 1} degrees, got {len(groups)}")
    fixed = []
    for rank, torsion in groups:
        integer(rank, "free rank", 0)
        entries = [abs(integer(q, "torsion entry")) for q in torsion]
        if 0 in entries:  # Z/0 is Z: a rank, never a torsion entry
            raise ValueError("torsion entry must be nonzero, got 0")
        fixed.append((rank, tuple(sorted(q for q in entries if q > 1))))
    return tuple(fixed)


#: Each way a degree's torsion is given, from its entries; a generator is truthy even
#: when empty, and None and 0 cannot be iterated at all.
TORSION_KINDS = {
    "tuple": tuple, "list": list, "generator": lambda e: (q for q in e),
    "range": lambda e: range(e[0], e[0] + e[1] * e[2], e[2]),  # e: start, length, step
    "empty tuple": lambda e: (), "empty list": lambda e: [],
    "empty generator": lambda e: (q for q in ()), "empty range": lambda e: range(0),
    "empty str": lambda e: "", "str": lambda e: "37", "None": lambda e: None, "0": lambda e: 0,
}
COMMON_KINDS = ("tuple", "list", "generator", "range") * 2 + (
    "empty tuple", "empty list", "empty generator", "empty range")
RARE_KINDS = ("empty str", "str", "None", "0")
#: Entries: ±1, signs, large values, 0, and what is not an int.
ENTRIES = (1, -1, 2, 3, 12, -12, 9, -27, 2**64 + 1, -(2**70), 0, 2.0, True, False, "3")
#: Ranks: good ones, and a negative, a bool, a float, a str and None.
RANKS = (0, 1, 2, 3, 2**70, -1, True, 2.0, "1", None)


def random_degree(rng):
    """The recipe of one degree: its rank, its torsion kind and the entries it is built from."""
    rank = rng.choice(RANKS[:5]) if rng.random() < 0.97 else rng.choice(RANKS[5:])
    kind = rng.choice(COMMON_KINDS if rng.random() < 0.97 else RARE_KINDS)
    if kind == "range":
        return rank, kind, (rng.randint(-5, 12), rng.randint(0, 4), rng.choice((1, 2, 5, -1)))
    entries = [rng.choice(ENTRIES[:10]) if rng.random() < 0.96 else rng.choice(ENTRIES[10:])
               for _ in range(rng.randint(1, 4))]
    return rank, kind, entries


def built(recipe):
    """The groups a recipe describes, built afresh, so each generator is unread."""
    return [(rank, TORSION_KINDS[kind](entries)) for rank, kind, entries in recipe]


def test_the_checking_constructor_matches_its_loop_before_the_empty_torsion_path():
    # 2 000 seeded inputs, each built twice: the constructor and the reference give
    # the same groups, or raise the same class with the same line.
    rng = random.Random(38)
    outcomes = {}
    for _ in range(2000):
        recipe = [random_degree(rng)
                  for _ in range(MAX_DEGREE + rng.choice((0,) * 30 + (-1, 1)) + 1)]
        results = []
        for make in (lambda g: GradedAbelianGroup(g).groups, reference_groups):
            try:
                results.append(make(built(recipe)))
            except (TypeError, ValueError) as exc:
                results.append((type(exc), str(exc)))
        assert results[0] == results[1], recipe
        key = "built" if type(results[0][0]) is tuple else results[0][1].split(",")[0]
        outcomes[key] = outcomes.get(key, 0) + 1
    assert outcomes.get("built", 0) >= 400, outcomes
    assert len(outcomes) >= 8 and min(outcomes.values()) >= 5, outcomes


def test_render_graded():
    g = graded({0: (1, ()), 1: (2, (3, 9)), 3: (1, ())})
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
    # each entry by the integer flags' rule: a sign and leading zeros, whitespace around
    assert parse_matrix("[ [+1 ,\t007] ,\n[ -0,-02 ] ]") == IntMatrix.from_rows([[1, 7], [0, -2]])


def test_parse_matrix_rejections():
    # gauge4's own line for each: the shape's is fixed text, an entry's names the token
    shape = "bad matrix syntax: expected a bracketed list of bracketed rows"
    for text, line in [
        ("[[1,0],[0", shape), ("5", shape), ("[1,2]", shape), ("[[[1]]]", shape), ("", shape),
        ("[[1],[2,3]]", "ragged matrix rows"),
        ("[[1.5]]", "bad matrix entry: '1.5'"), ('[["x"]]', "bad matrix entry: '\"x\"'"),
        ("[[true]]", "bad matrix entry: 'true'"), ("[[1,]]", "bad matrix entry: ''"),
        ("[[1 2]]", "bad matrix entry: '1 2'"),
    ]:
        with pytest.raises(ValueError) as exc:
            parse_matrix(text)
        assert str(exc.value) == line, text


def test_parse_matrix_rejects_deep_nesting():
    with pytest.raises(ValueError, match="bad matrix syntax"):
        parse_matrix("[" * 5000 + "]" * 5000)
