"""Smith normal form against a minors oracle; chain complexes against
closed-form homology; the suspension shift."""

import ast
import copy
import hashlib
import json
import pickle
import random
import sys
import time
from itertools import combinations, product
from math import gcd, prod
from pathlib import Path

import pytest

import oracles
from conftest import graded, handle_complex, random_matrix_rows, random_spec
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
    wedge,
)
from gauge4 import homology
from gauge4.cli import run
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


def check_against_minors(rows, factors=None):
    """Check the SNF of rows, or the invariant factors one route gave."""
    if factors is None:
        factors, rank = smith_normal_form(IntMatrix.from_rows(rows))
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
    ]
    for rows, expected in cases:
        assert smith_normal_form(IntMatrix.from_rows(rows)).invariant_factors == expected


def test_an_snf_result_is_the_named_pair_it_was():
    # a tuple of (invariant factors, rank) that names both and prints as a named tuple
    snf = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert repr(snf) == "SNFResult(invariant_factors=(2, 4), rank=2)"
    assert snf == ((2, 4), 2) and hash(snf) == hash(((2, 4), 2)) and tuple(snf) == ((2, 4), 2)
    factors, rank = snf
    assert (factors, rank) == (snf.invariant_factors, snf.rank) == (snf[0], snf[1]) == ((2, 4), 2)
    assert isinstance(snf, tuple) and len(snf) == 2
    pickled = [pickle.loads(pickle.dumps(snf, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in (copy.copy(snf), copy.deepcopy(snf), *pickled):
        assert type(twin) is type(snf) and twin == snf and repr(twin) == repr(snf)
    for name in ("invariant_factors", "rank", "other"):
        with pytest.raises(AttributeError):
            setattr(snf, name, 0)
    assert homology.SNFResult(rank=1, invariant_factors=(3,)) == ((3,), 1)


def test_snf_degenerate_shapes():
    assert smith_normal_form(IntMatrix.from_rows([], cols=0)).invariant_factors == ()
    assert smith_normal_form(IntMatrix.from_rows([[]], cols=0)).invariant_factors == ()
    assert smith_normal_form(IntMatrix.zero(0, 3)).invariant_factors == ()
    assert smith_normal_form(IntMatrix.from_rows([[0, 7, 0]])).invariant_factors == (7,)


def test_snf_matches_minor_oracle():
    rng = random.Random(20213)
    for _ in range(80):
        check_against_minors(random_matrix_rows(rng))


def modulo_d(rows):
    """The invariant factors by the modulo-D route of smith_normal_form, called directly."""
    rank, det, _ = homology._rank_and_minor(rows)
    return homology._modulo(rows, det, rank)


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
        assert smith_normal_form(IntMatrix.from_rows(padded)) == (expected, len(expected))
    # A singular square has rank below its side, so it goes modulo D.
    assert homology._rank_and_minor([[1, 2], [2, 4]]) == (1, 1, 1)
    assert smith_normal_form(IntMatrix.from_rows([[1, 2], [2, 4]])) == ((1,), 1)


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
        snf = smith_normal_form(IntMatrix.from_rows(rows))
        assert snf == (tuple(expected), len(expected)), rows
        assert modulo_d(rows) == expected, rows


def test_snf_non_square_box(hang_guard):
    # Every 2 x 3 and 3 x 2 matrix over [-2, 2], 31 250 in all: shapes
    # that always take the modulo-D route.
    box = [(v[:3], v[3:]) for v in product(range(-2, 3), repeat=6)]
    box += [(v[:2], v[2:4], v[4:]) for v in product(range(-2, 3), repeat=6)]
    assert len(box) == 31250
    for rows in box:
        expected = divisor_chain(rows)
        snf = smith_normal_form(IntMatrix.from_rows(rows))
        assert snf == (tuple(expected), len(expected)), rows


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
        digest.update(repr(tuple(smith_normal_form(IntMatrix.from_rows(rows)))).encode())
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


@pytest.mark.parametrize("m,n,count,seed,singular", SWEEP,
                         ids=[f"{m}x{n}" + "-singular" * s for m, n, _, _, s in SWEEP])
def test_snf_sweep_on_dense_matrices(hang_guard, m, n, count, seed, singular):
    rng = random.Random(seed)
    for _ in range(count):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        if singular:
            rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
        start = time.process_time()
        factors, rank = smith_normal_form(IntMatrix.from_rows(rows))
        assert time.process_time() - start < 1.0
        # The column pass and the row pass differ, so the transpose is a check.
        assert smith_normal_form(IntMatrix.from_rows(list(zip(*rows)))) == (factors, rank)
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
        assert g.euler_characteristic == cells


def test_torsion_past_2_64_goes_through_chain_homology(hang_guard):
    # A seeded dense 20 x 20 boundary whose last invariant factor has 80
    # bits: the torsion is kept as the SNF gives it, never factored.
    rng = random.Random(5)
    d1 = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(20)] for _ in range(20)])
    factors = smith_normal_form(d1).invariant_factors
    g = chain_homology([d1])
    assert g.torsion(0) == tuple(d for d in factors if d > 1) == (855460983064475659038433,)
    assert (g.rank(0), g.rank(1)) == (0, 0)
    assert g == graded({0: (0, factors)}) and len({g, graded({0: (0, factors)})}) == 1


# --------------------------------------------------------------------------
# graded groups, closed-form manifold homology, suspension


def test_torsion_entries_are_kept_and_compared_by_invariant_factors():
    g = graded({1: (0, (12,))})
    assert g.torsion(1) == (12,)
    h = graded({1: (0, (4, 3))})
    assert h.torsion(1) == (3, 4)
    # Z/12 is Z/4 + Z/3: equal and hashed alike, though the reprs differ.
    assert g == h and hash(g) == hash(h) and repr(g) != repr(h)
    # An entry of 1 is Z/1, no torsion, as chain_homology hands it over; a sign is dropped.
    assert graded({1: (0, (1, 12, -1))}).torsion(1) == (12,)
    g = graded({1: (0, (12, -12)), 2: (1, (12,))})
    assert (g.torsion(1), g.torsion(2)) == ((12, 12), (12,))
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
    assert closed.torsion(2) == (5, 9, p)


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
    assert got == graded(
        {0: (1, ()), 2: (0, moduli), 3: (4, moduli), 5: (1, ())}
    )
    assert got == suspend(homology_of_manifold(spec))


def test_term_homology_reaches_degree_five_and_no_further():
    # P^6(q) has its Z/q in degree 5; S^6 and P^7(q) each reach degree 6,
    # and the refusal names the degree, not the dimension.
    assert homology_of_term(Moore(6, 9)) == graded({0: (1, ()), 5: (0, (9,))})
    assert homology_of_term(Moore(2, 6)).torsion(1) == (6,)  # kept as it is, not split
    assert homology_of_term(wedge([Moore(6, 12), Sphere(5)])) == graded(
        {0: (1, ()), 5: (1, (3, 4))})
    for term in (Sphere(6), Moore(7, 9), wedge([Sphere(3), Moore(7, 9)])):
        with pytest.raises(ValueError, match=r"^degree 6 outside 0\.\.5$"):
            homology_of_term(term)


def test_term_homology_checks_per_block_not_per_copy(monkeypatch):
    # 10^5 copies of P^3(12) are one block: its modulus is written as it
    # is, and no torsion entry goes through the constructor's per-entry check.
    checks = []
    check = homology.integer
    monkeypatch.setattr(homology, "integer", lambda *args: checks.append(args) or check(*args))
    g = homology_of_term(Wedge(((Sphere(5), 1), (Moore(3, 12), 10**5))))
    assert g.torsion(2) == (12,) * 10**5
    assert (g.rank(0), g.rank(5)) == (1, 1)
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
    assert g.rank(5) == 1
    with pytest.raises(ValueError):
        suspend(g)


def test_graded_groups_refuse_a_wrong_shape():
    with pytest.raises(ValueError, match="^expected 6 degrees, got 5$"):
        GradedAbelianGroup(((0, ()),) * 5)
    with pytest.raises(ValueError, match=r"^degree 6 outside 0\.\.5$"):
        graded({6: (1, ())})
    with pytest.raises(ValueError, match="^cannot suspend an empty space: degree 0 is zero$"):
        suspend(graded({}))


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
