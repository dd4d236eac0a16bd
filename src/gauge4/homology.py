"""Integral homology: graded groups, Smith normal form, chain complexes.

This module is the package's independent arithmetic backbone.  The
decomposition engine predicts homology through closed formulas; everything
here recomputes it from first principles (cellular chain complexes reduced
by Smith normal form over Z), so the two routes can be checked against each
other.

Degrees are capped at 5 — enough for a 4-manifold and one suspension.
Torsion is always stored as a sorted tuple of prime powers, so equal groups
have equal representations no matter how they were computed.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from math import gcd
from operator import mul

from . import terms as _t
from .arith import prime_power_parts
from .manifold import ManifoldSpec
from .value import Value, integer, past_digit_limit

MAX_DEGREE = 5


class ChainComplexError(ValueError):
    """Input matrices do not form a chain complex in degrees 0..5."""


# --------------------------------------------------------------------------
# graded abelian groups


class GradedAbelianGroup(Value):
    """A finitely generated abelian group in each degree 0..5.

    ``groups[i]`` is ``(free_rank, torsion)`` with torsion a sorted tuple
    of prime powers; any torsion entry given, a nonzero int, is split into
    prime powers first, so Z/12, Z/-12 and Z/4 + Z/3 are the same value,
    and an entry of 1 gives no torsion.  An entry of 0 is refused: Z/0 is
    Z, which belongs in the rank.
    """

    __slots__ = ("groups",)

    def __init__(self, groups: Sequence[tuple[int, Iterable[int]]]) -> None:
        if len(groups) != MAX_DEGREE + 1:
            raise ValueError(f"expected {MAX_DEGREE + 1} degrees, got {len(groups)}")
        fixed = []
        split: dict[int, tuple[int, ...]] = {}  # each distinct entry is factored once
        for rank, torsion in groups:
            integer(rank, "free rank", 0)
            parts: list[int] = []
            for q in torsion:
                q = abs(integer(q, "torsion entry"))
                if not q:  # Z/0 is Z: a rank, never a torsion entry
                    raise ValueError("torsion entry must be nonzero, got 0")
                if q > 1 and q not in split:
                    split[q] = prime_power_parts(q)
                parts += split.get(q, ())
            fixed.append((rank, tuple(sorted(parts))))
        self._set(tuple(fixed))

    @classmethod
    def _of_prime_powers(cls, groups: Sequence[tuple[int, tuple]]) -> "GradedAbelianGroup":
        """The group as given: its torsion must be sorted prime powers already."""
        g = cls.__new__(cls)
        g._set(tuple(groups))
        return g

    def rank(self, degree: int) -> int:
        return self.groups[degree][0]

    def torsion(self, degree: int) -> tuple[int, ...]:
        return self.groups[degree][1]

    @property
    def euler_characteristic(self) -> int:
        return sum((-1) ** i * rank for i, (rank, _) in enumerate(self.groups))


def suspend(g: GradedAbelianGroup) -> GradedAbelianGroup:
    """Shift the reduced part up one degree; degree 0 becomes a single Z.

    The degree-0 group contributes its rank beyond one (extra connected
    components) to degree 1.  A nonzero reduced group in degree 5 has
    nowhere to go and is an error.  The torsion, already split, moves as it is.
    """
    top_rank, top_torsion = g.groups[MAX_DEGREE]
    if top_rank or top_torsion:
        raise ValueError(f"cannot suspend: degree {MAX_DEGREE} is nonzero")
    rank0, torsion0 = g.groups[0]
    if rank0 < 1:
        raise ValueError("cannot suspend an empty space: degree 0 is zero")
    shifted = [(1, ())] + [(rank0 - 1, torsion0)] + list(g.groups[1:MAX_DEGREE])
    return GradedAbelianGroup._of_prime_powers(shifted)


def render_graded(g: GradedAbelianGroup) -> str:
    """One line per degree: ``H_1 = Z^2 + Z/3 + Z/9``; zero groups as 0."""
    lines = []
    for i, (rank, torsion) in enumerate(g.groups):
        parts = []
        if rank == 1:
            parts.append("Z")
        elif rank > 1:
            parts.append(f"Z^{rank}")
        parts += [f"Z/{q}" for q in torsion]
        lines.append(f"H_{i} = {' + '.join(parts) or '0'}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# integer matrices and Smith normal form


class IntMatrix(Value):
    """An immutable rows x cols integer matrix; either side may be 0, and
    every entry must be an int (a bool is not).  The entries are stored as
    a tuple of row tuples, whatever sequences they were given as."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence[int]]) -> None:
        integer(rows, "matrix rows", 0)
        integer(cols, "matrix columns", 0)
        entries = tuple(map(tuple, entries))
        if len(entries) != rows:
            raise ValueError(f"expected {rows} rows, got {len(entries)}")
        bad = [v for row in entries for v in row if type(v) is not int]
        if bad:
            raise ValueError(f"matrix entries must be integers, got {bad[0]!r}")
        if any(len(row) != cols for row in entries):
            raise ValueError("ragged matrix rows")
        self._set(rows, cols, entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        if cols is None:
            cols = len(rows[0]) if rows else 0
        return cls(len(rows), cols, rows)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, [[0] * cols] * rows)


#: The invariant factors (a tuple of ints), and the rank, their number.
SNFResult = namedtuple("SNFResult", "invariant_factors rank")


def smith_normal_form(mat: IntMatrix) -> SNFResult:
    """Invariant factors d1 | d2 | ... of an integer matrix, and its rank.

    Elimination over Z: the smallest nonzero entry of the remaining block
    is the pivot, and its column is cleared with round-to-nearest
    quotients; a remainder, at most half the pivot, becomes the next pivot
    at once.  Only once the column is clear is the pivot's row cleared the
    same way, which then changes the pivot row alone.  A row holding an
    entry the pivot does not divide is added to the pivot row.  Small
    inputs finish this way with small entries.

    Should an entry pass ``_GROWTH_LIMIT``, the elimination restarts
    modulo D, which bounds every entry by D/2 (Kannan–Bachem 1979; Cohen,
    *A Course in Computational Algebraic Number Theory*, 2.4).  D = |M|
    for a nonzero r x r minor M, r the rank, both from fraction-free
    elimination; D is a multiple of d1 * ... * dr, so modulo D the same
    steps find gcd(di, D) = di, except that a di equal to D reads as 0.
    Only the nonzero diagonal is returned; rank equals its length.
    """
    factors = _diagonalize(mat.entries, 0)
    if factors is None:  # an entry passed _GROWTH_LIMIT
        rank, det = _rank_and_minor(mat.entries)
        factors = _diagonalize(mat.entries, det) if det > 1 else []
        factors += [det] * (rank - len(factors))
    return SNFResult(tuple(factors), len(factors))


#: Entries past this make the elimination over Z restart modulo D.
_GROWTH_LIMIT = 2**62


def _diagonalize(rows: Sequence[Sequence[int]], det: int) -> list[int] | None:
    """The nonzero diagonal of the elimination described in smith_normal_form.

    det = 0 works over Z and gives None once an entry passes
    _GROWTH_LIMIT; det > 1 works modulo det, and a cleared pivot p becomes
    gcd(p, det).  The remaining block is checked (or reduced) whenever its
    smallest entry is sought, at each new diagonal position.  In between,
    a column pass, or a row pass once the column is clear, hands over to
    the smallest remainder it leaves, at most half the pivot before it, so
    the growth the passes allow telescopes and every entry stays
    polynomial in max(limit, det).
    """
    a = [list(row) for row in rows if any(row)]
    m, n = len(a), len(rows[0]) if rows else 0
    half = det // 2
    factors: list[int] = []
    for t in range(min(m, n)):
        if det:
            a[t:] = [[(v + half) % det - half for v in row] for row in a[t:]]
        if t == m - 1 or t == n - 1:  # one row or column left: its gcd ends the chain
            g = gcd(*(v for row in a[t:] for v in row[t:]))
            return factors + [gcd(g, det)] if g else factors
        sizes = [abs(v) for row in a[t:] for v in row[t:]]
        best = min(filter(None, sizes), default=0)
        if not best:
            return factors
        if not det and max(sizes) > _GROWTH_LIMIT:
            return None
        i, j = divmod(sizes.index(best), n - t)
        pivot = (t + i, t + j)
        while True:
            i, j = pivot
            a[t], a[i] = a[i], a[t]
            if j != t:
                for row in a:
                    row[t], row[j] = row[j], row[t]
            top = a[t]
            p = top[t]
            # Clear column t, then row t, with round-to-nearest quotients;
            # the smallest remainder left becomes the next pivot at once.
            pivot, least = None, 0
            for i in range(t + 1, m):
                v = a[i][t]
                if v:
                    q = (2 * v + p) // (2 * p)
                    a[i] = [x - q * y for x, y in zip(a[i], top)]
                    r = abs(a[i][t])
                    if r and (not least or r < least):
                        pivot, least = (i, t), r
            if pivot:
                continue
            # Column t is clear, so the row pass changes the pivot row alone.
            for j in range(t + 1, n):
                v = top[j]
                if v:
                    top[j] = v - (2 * v + p) // (2 * p) * p
                    r = abs(top[j])
                    if r and (not least or r < least):
                        pivot, least = (t, j), r
            if pivot:
                continue
            g = top[t] = gcd(p, det)
            bad = g > 1 and next((row for row in a[t + 1:] if any(v % g for v in row)), None)
            if not bad:
                break
            a[t] = [x + y for x, y in zip(top, bad)]
            pivot = (t, t)
        factors.append(g)
    return factors


def _rank_and_minor(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Rank r of an integer matrix and |M| for a nonzero r x r minor M.

    Fraction-free (Bareiss) elimination: after k pivots every entry it
    holds is a (k+1) x (k+1) minor of the input, so nothing grows past
    Hadamard's bound, and the last pivot is M.  Rank 0 gives (0, 1).
    """
    work = [list(row) for row in rows if any(row)]
    rank, prev = 0, 1
    for c in range(len(rows[0]) if rows else 0):
        if rank == len(work):
            break
        k = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if k is None:
            continue
        work[rank], work[k] = work[k], work[rank]
        top = work[rank]
        p = top[c]
        for i in range(rank + 1, len(work)):
            v = work[i][c]
            work[i] = [(p * x - v * y) // prev for x, y in zip(work[i], top)]
        rank, prev = rank + 1, p
    return rank, abs(prev)


# --------------------------------------------------------------------------
# chain complexes


def chain_homology(boundaries: Sequence[IntMatrix]) -> GradedAbelianGroup:
    """Homology of a chain complex given by boundary matrices [d1, ..., dN].

    ``boundaries[k-1]`` is the degree-k boundary map C_k -> C_{k-1}, stored
    with rows indexed by C_{k-1} and columns by C_k; zero maps must still
    be passed (with the right shape) because the matrices carry the chain
    group dimensions.  Requires N <= 5, matching shapes, and d.d = 0,
    checked entry by entry, each row of one boundary against each column of
    the next, without building the products.
    """
    n_top = len(boundaries)
    if n_top == 0:
        raise ChainComplexError("no boundary matrices given")
    if n_top > MAX_DEGREE:
        raise ChainComplexError(f"chain complex exceeds degree {MAX_DEGREE}")
    dims = [boundaries[0].rows] + [b.cols for b in boundaries]
    for k in range(1, n_top):
        if boundaries[k].rows != dims[k]:
            raise ChainComplexError(
                f"dimension mismatch between degrees {k} and {k + 1}: "
                f"{boundaries[k - 1].cols} vs {boundaries[k].rows}"
            )
    for k in range(n_top - 1):
        cols = list(zip(*boundaries[k + 1].entries))
        if any(sum(map(mul, row, col)) for row in boundaries[k].entries for col in cols):
            raise ChainComplexError(f"not a chain complex: d{k + 1}.d{k + 2} != 0")

    snfs = [smith_normal_form(b) for b in boundaries]
    ranks = [0] + [snf.rank for snf in snfs] + [0]  # of d_0 .. d_{N+1}, both ends zero maps
    torsion = [snf.invariant_factors for snf in snfs] + [()]
    groups = [(dims[k] - ranks[k] - ranks[k + 1], torsion[k]) for k in range(n_top + 1)]
    return GradedAbelianGroup(groups + [(0, ())] * (MAX_DEGREE - n_top))


# --------------------------------------------------------------------------
# homology of manifold specs and of space terms


def homology_of_manifold(spec: ManifoldSpec) -> GradedAbelianGroup:
    """Integral homology of the described 4-manifold, degrees 0..4.

    H_1 carries the abelianized fundamental group; H_2 adds the same
    torsion to Z^b2 (universal coefficients plus duality); H_3 is the free
    part of H_1 by duality; H_0 and H_4 are Z.
    """
    m = spec.pi1.free_rank
    torsion = tuple(sorted(p**r for p, r in spec.pi1.cyclic_factors))  # split already
    groups = [(1, ()), (m, torsion), (spec.b2, torsion), (m, ()), (1, ()), (0, ())]
    return GradedAbelianGroup._of_prime_powers(groups)


def homology_of_term(term: _t.SpaceTerm) -> GradedAbelianGroup:
    """Unreduced integral homology of a space term (a Z in degree 0).

    One pass adds each (summand, count) block's count to a rank, or the
    prime powers of a Moore modulus, split once per block, count times to
    the torsion, checking each degree where it writes it; the cost is linear
    in the number of distinct summands plus the torsion written out.
    """
    ranks = [1] + [0] * MAX_DEGREE
    torsion: list[list[int]] = [[] for _ in ranks]
    for atom, count in _t.blocks(term):
        if isinstance(atom, _t.SuspCP2):
            ranks[3] += count
            ranks[5] += count
            continue
        deg = atom.dim - isinstance(atom, _t.Moore)
        if deg > MAX_DEGREE:
            raise ValueError(f"degree {deg} outside 0..{MAX_DEGREE}")
        if isinstance(atom, _t.Sphere):
            ranks[deg] += count
        else:
            torsion[deg] += prime_power_parts(atom.modulus) * count
    groups = [(rank, tuple(sorted(parts))) for rank, parts in zip(ranks, torsion)]
    return GradedAbelianGroup._of_prime_powers(groups)


# --------------------------------------------------------------------------
# matrix grammar (shared with the command line)


def parse_matrix(text: str) -> IntMatrix:
    """Parse row-major bracket syntax: ``[[1,0],[0,1]]``; ``[]`` is 0 x 0."""
    import json  # here, not at the top: only this grammar reads JSON, so no other query loads it

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad matrix syntax: {exc}") from None
    except RecursionError:
        raise ValueError("bad matrix syntax: brackets nested too deeply") from None
    except ValueError:  # int() past Python's digit limit, so there is one
        raise ValueError(f"bad matrix syntax: {past_digit_limit('an entry')}") from None
    if not isinstance(data, list) or any(not isinstance(r, list) for r in data):
        raise ValueError("matrix must be a list of rows")
    return IntMatrix.from_rows(data)
