"""Metamorphic relations: two answers of gauge4 checked against each other, with
no second derivation of either.

- SNF: SNF(A^T) = SNF(A); SNF(cA) = c SNF(A); the block sum A + B has the
  invariant factors of the two torsions merged, with rank the sum; SNF(UAV) =
  SNF(A) for unimodular U and V.
- homology: H_i(M # N) = H_i(M) + H_i(N) for i = 1, 2, 3, and stabilize(M, d)
  adds Z^{2d} to H_2 and changes nothing else, each through the closed form and
  through chain_homology on a conjugated handle complex; stabilize(M, d) is M
  summed with d copies of S^2 x S^2, and its splitting is the stabilized
  splitting of M at that d.
- splitting: for spin M and N the non-base blocks of the stabilized splitting
  of M # N are those of M and of N together (S(M # N) ~ SM_0 v SN_0 v S^5 once
  each top cell splits off); with a non-spin side the base is the one SCP^2
  block, and it spends one 2-cell of the sum's S^3 count.
- classify: its laws are checked on a whole box in tests/test_classifier.py.

Each relation draws from its own seeded generator.
"""

import random

from conftest import graded, handle_complex, matmul, random_spec, unimodular
from gauge4 import (
    SYMBOLIC,
    IntMatrix,
    ManifoldSpec,
    Sphere,
    SuspCP2,
    chain_homology,
    connected_sum,
    homology_of_manifold,
    mixed_decomposition,
    smith_normal_form,
    stabilize,
)


def random_rows(rng: random.Random, max_side=6, bound=9) -> list[list[int]]:
    """A seeded matrix: dense, sparse (zero rows and columns, one-line rests) or a
    rank-one product u v^T, so every route of the SNF is drawn."""
    rows, cols = rng.randint(1, max_side), rng.randint(1, max_side)
    shape = rng.randrange(3)
    if shape == 2:
        u = [rng.randint(-bound, bound) for _ in range(rows)]
        v = [rng.randint(-bound, bound) for _ in range(cols)]
        return [[a * b for b in v] for a in u]
    zero = 0.0 if shape == 0 else 0.6
    return [[0 if rng.random() < zero else rng.randint(-bound, bound) for _ in range(cols)]
            for _ in range(rows)]


def snf(rows, cols=None):
    """The invariant factors and the rank of the SNF of rows, as a pair."""
    result = smith_normal_form(IntMatrix.from_rows(rows, cols))
    return result.invariant_factors, result.rank


def torsion(factors):
    """The finite group Z/d1 + Z/d2 + ... in degree 0, compared by its invariant factors."""
    return graded({0: (0, [d for d in factors if d != 1])})


def test_snf_of_the_transpose_is_the_snf():
    rng = random.Random(2301)
    for _ in range(1500):
        rows = random_rows(rng)
        assert snf([list(col) for col in zip(*rows)], len(rows)) == snf(rows), rows


def test_snf_of_a_multiple_is_the_multiple_of_the_snf():
    rng = random.Random(2302)
    for _ in range(1500):
        rows, c = random_rows(rng), rng.randint(2, 9)
        factors, rank = snf(rows)
        assert snf([[c * v for v in row] for row in rows]) == (
            tuple(c * d for d in factors), rank), (rows, c)


def test_snf_of_a_block_sum_merges_the_torsions():
    rng = random.Random(2303)
    for _ in range(800):
        a, b = random_rows(rng, 4), random_rows(rng, 4)
        ca, cb = len(a[0]), len(b[0])
        block = [row + [0] * cb for row in a] + [[0] * ca + row for row in b]
        (fa, ra), (fb, rb), (factors, rank) = snf(a), snf(b), snf(block)
        assert rank == ra + rb == len(factors), (a, b)
        assert all(e % d == 0 for d, e in zip(factors, factors[1:])), (a, b)
        assert torsion(factors) == torsion(fa + fb), (a, b)


def test_snf_is_invariant_under_unimodular_change_of_basis():
    rng = random.Random(2304)
    for _ in range(600):
        rows = random_rows(rng, 5)
        n, k = len(rows), len(rows[0])
        u, _ = unimodular(rng, n)
        _, v = unimodular(rng, k)
        assert snf(matmul(matmul(u, rows, n, k), v, k, k), k) == snf(rows), rows


def summed_homology(h, g):
    """The graded group of M # N from H(M) and H(N): their sum in degrees 1 to 3, Z in
    degrees 0 and 4."""
    degrees = {0: (1, ()), 4: (1, ())}
    for i in (1, 2, 3):
        (r, t), (s, u) = h.groups[i], g.groups[i]
        degrees[i] = (r + s, t + u)
    return graded(degrees)


def both_homologies(rng, spec):
    """The closed-form homology of spec and chain_homology of its conjugated handle complex."""
    return homology_of_manifold(spec), chain_homology(handle_complex(rng, spec))


def test_homology_of_a_connected_sum_is_the_sum_in_degrees_1_to_3(hang_guard):
    rng = random.Random(2305)
    for _ in range(200):
        m, n = (random_spec(rng, max_free=3, max_cyclic=2) for _ in range(2))
        for h_sum, h_m, h_n in zip(*(both_homologies(rng, s) for s in (connected_sum(m, n), m, n))):
            assert h_sum == summed_homology(h_m, h_n), (m, n)


def test_stabilize_adds_z_2d_to_h2_and_nothing_else(hang_guard):
    rng = random.Random(2306)
    s2xs2 = ManifoldSpec(b2=2)
    for _ in range(200):
        spec, d = random_spec(rng, max_free=3, max_cyclic=2), rng.randint(0, 4)
        stable = stabilize(spec, d)
        summed = spec
        for _ in range(d):
            summed = connected_sum(summed, s2xs2)
        assert stable == summed, (spec, d)
        # the stabilized splitting at a concrete d is the splitting of stabilize(M, d)
        assert (mixed_decomposition(stable, d=0).suspension
                == mixed_decomposition(spec, d=d).suspension)
        for h_stable, h in zip(both_homologies(rng, stable), both_homologies(rng, spec)):
            expected = [list(group) for group in h.groups]
            expected[2][0] += 2 * d
            assert h_stable == graded(dict(enumerate(expected))), (spec, d)


def non_base(dec) -> dict:
    """{summand: count} of a splitting's blocks after its base."""
    return dict(dec.suspension.blocks[1:])


def test_splitting_of_a_connected_sum_joins_the_non_base_blocks():
    rng = random.Random(2307)
    seen = set()
    for _ in range(600):
        m, n = random_spec(rng), random_spec(rng)
        t = rng.randint(-5, 5)
        if rng.random() < 0.5:
            dm = dn = d = SYMBOLIC
        else:
            dm, dn = rng.randint(0, 3), rng.randint(0, 3)
            d = dm + dn
        whole = mixed_decomposition(connected_sum(m, n), t, d=d)
        expected = {}
        for part in (mixed_decomposition(m, t, d=dm), mixed_decomposition(n, t, d=dn)):
            for summand, count in non_base(part).items():
                expected[summand] = expected.get(summand, 0) + count
        non_spin = [s for s in (m, n) if not s.sigma_f_trivial]
        if non_spin:
            # each non-spin side gets back the 2-cell its own SCP^2 spent; the sum spends one
            expected[Sphere(3)] = expected.get(Sphere(3), 0) + len(non_spin) - 1
            expected = {summand: count for summand, count in expected.items() if count}
        base = SuspCP2() if non_spin else Sphere(5)
        assert whole.suspension.blocks[0] == (base, 1), (m, n)
        assert non_base(whole) == expected, (m, n, d)
        seen.add(len(non_spin))
    assert seen == {0, 1, 2}
