"""Integral homology: graded groups, Smith normal form, chain complexes.

This module is the package's independent arithmetic backbone.  The
decomposition engine predicts homology through closed formulas; everything
here recomputes it from first principles (cellular chain complexes reduced
by Smith normal form over Z), so the two routes can be checked against each
other.

Degrees are capped at 5 — enough for a 4-manifold and one suspension.
Torsion is stored as the sorted cyclic orders it was built from, and
nothing is factored: two groups are equal when their ranks and invariant
factors are, which factor refinement finds, so Z/6 equals Z/2 + Z/3
though their representations differ.
"""

from math import gcd, prod
from operator import mul

from . import terms as _t
from .manifold import ManifoldSpec
from .value import Value, decimal, integer

MAX_DEGREE = 5


class ChainComplexError(ValueError):
    """Input matrices do not form a chain complex in degrees 0..5."""


# --------------------------------------------------------------------------
# graded abelian groups


class GradedAbelianGroup(Value):
    """A finitely generated abelian group in each degree 0..5.

    ``groups[i]`` is ``(free_rank, torsion)`` with torsion the sorted tuple
    of the cyclic orders given, each a nonzero int: Z/-12 is Z/12, an entry
    of 1 gives no torsion, and an entry of 0 is refused (Z/0 is Z, which
    belongs in the rank).  No entry is split, so Z/12 and Z/4 + Z/3 keep
    their own torsion tuples and reprs; they are still equal, and hash
    alike, as equality and hashing compare ranks and invariant factors.
    """

    __slots__ = ("groups",)

    def __init__(self, groups: "Sequence[tuple[int, Iterable[int]]]") -> None:
        if len(groups) != MAX_DEGREE + 1:
            raise ValueError(f"expected {MAX_DEGREE + 1} degrees, got {len(groups)}")
        fixed = []
        for rank, torsion in groups:
            integer(rank, "free rank", 0)
            entries = [abs(integer(q, "torsion entry")) for q in torsion]
            if 0 in entries:  # Z/0 is Z: a rank, never a torsion entry
                raise ValueError("torsion entry must be nonzero, got 0")
            fixed.append((rank, tuple(sorted(q for q in entries if q > 1))))
        self._set(tuple(fixed))

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self.groups == other.groups or self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> tuple:
        return tuple((rank, _invariant_factors(torsion)) for rank, torsion in self.groups)


def _invariant_factors(torsion: tuple[int, ...]) -> tuple[int, ...]:
    """The invariant factors d1 | d2 | ... above 1 of the sum of Z/q over
    torsion, whose entries are above 1, found without factoring.

    Factor refinement (Bach, Driscoll and Shallit, *J. Algorithms* 15, 1993)
    turns the distinct entries into a coprime base: two numbers with a
    common factor g > 1 give way to g and their cofactors until every pair
    is coprime, and each entry is then a product of powers of the base.
    For a prime p of a base element b, the p-part of Z/q is fixed by b's
    exponent in q, so sorting b's exponents sorts all those p-parts at once,
    and the i-th largest invariant factor is the product over the base of b
    to its i-th largest exponent.
    """
    counts = dict.fromkeys(torsion, 0)
    for q in torsion:
        counts[q] += 1
    base: list[int] = []
    todo = list(counts)
    while todo:  # each split lowers the product of base and todo
        a = todo.pop()
        for i, b in enumerate(base):
            g = gcd(a, b)
            if g > 1:
                del base[i]
                todo += [v for v in (g, a // g, b // g) if v > 1]
                break
        else:
            base.append(a)
    factors = [1] * len(torsion)  # largest first
    for b in base:
        exponents = []
        for q, count in counts.items():
            e = 0
            while q % b == 0:
                q //= b
                e += 1
            exponents += [e] * count
        exponents.sort(reverse=True)
        for i, e in enumerate(exponents):
            factors[i] *= b**e
    return tuple(f for f in reversed(factors) if f > 1)


def suspend(g: GradedAbelianGroup) -> GradedAbelianGroup:
    """Shift the reduced part up one degree; degree 0 becomes a single Z.

    The degree-0 group contributes its rank beyond one (extra connected
    components) to degree 1.  A nonzero reduced group in degree 5 has
    nowhere to go and is an error.  The torsion entries move as they are.
    """
    top_rank, top_torsion = g.groups[MAX_DEGREE]
    if top_rank or top_torsion:
        raise ValueError(f"cannot suspend: degree {MAX_DEGREE} is nonzero")
    rank0, torsion0 = g.groups[0]
    if rank0 < 1:
        raise ValueError("cannot suspend an empty space: degree 0 is zero")
    shifted = [(1, ())] + [(rank0 - 1, torsion0)] + list(g.groups[1:MAX_DEGREE])
    return GradedAbelianGroup._as_given(tuple(shifted))


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

    def __init__(self, rows: int, cols: int, entries: "Sequence[Sequence[int]]") -> None:
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
    def from_rows(cls, rows: "Sequence[Sequence[int]]", cols: int | None = None) -> "IntMatrix":
        if cols is None:
            cols = len(rows[0]) if rows else 0
        return cls(len(rows), cols, rows)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, [[0] * cols] * rows)


class SNFResult(Value):
    """The invariant factors (a tuple of ints) and the rank, their number."""

    __slots__ = ("invariant_factors", "rank")

    def __init__(self, invariant_factors: tuple[int, ...], rank: int) -> None:
        self._set(invariant_factors, rank)


def smith_normal_form(mat: IntMatrix) -> SNFResult:
    """Invariant factors d1 | d2 | ... of an integer matrix, and its rank.

    Zero rows are dropped; a rest of one row or one column has rank 1 and d1
    the gcd of its entries.  Only a rest of two or more rows is transposed,
    without its zero columns (same SNF).  Otherwise ``_rank_and_minor``, one
    fraction-free pass, gives the rank r, D = |M| for a nonzero r x r minor
    M, a multiple of d1 ... dr, and g.  Then one of two routes, each an
    elimination modulo a number m, which bounds every entry by m/2
    (Kannan–Bachem 1979; Cohen, *A Course in Computational Algebraic Number Theory*, 2.4):

    - a square nonsingular rest, n x n, takes the trailing-minor route: g
      is a multiple of d1 ... d(n-1) dividing D, so modulo g the
      elimination finds d1 ... d(n-1), and dn = D / (d1 ... d(n-1));
    - every other rest (rectangular or singular) is eliminated modulo D,
      which finds d1 ... dr.

    Modulo m the elimination finds gcd(di, m) = di, except that a di equal
    to m reads as 0 and is padded back as m; m = 1 needs no elimination.
    Only the nonzero diagonal is returned; rank equals its length.
    """
    factors = _snf_factors([row for row in mat.entries if any(row)])
    return SNFResult(factors, len(factors))


def _snf_factors(rows: list[tuple[int, ...]]) -> tuple[int, ...]:
    """The invariant factors of a matrix given by its nonzero rows, in order: the one
    route of smith_normal_form, which chain_homology takes with the rows it has found.
    One row or column has rank 1 and is answered by its gcd, _diagonalize's exit at t = 0."""
    if len(rows) > 1:
        rows = [col for col in zip(*rows) if any(col)]
    if len(rows) == 1:
        return (gcd(*rows[0]),)
    rank, det, g = _rank_and_minor(rows)
    if rows and rank == len(rows) == len(rows[0]):
        head = _diagonalize(rows, g, rank - 1)
        return (*head, det // prod(head))
    return tuple(_diagonalize(rows, det, rank))


def _diagonalize(rows: "Sequence[Sequence[int]]", m: int, count: int) -> list[int]:
    """The first count entries of the diagonal of the SNF of rows modulo m,
    gcd(di, m) for each invariant factor di in order: all 1 for m = 1, and
    otherwise (count > 0) m for each entry left once the block left is 0
    modulo m.  After count - 1 pivots, each dividing the block left, its gcd
    with m ends the list.

    The remaining block is reduced to residues of size at most m/2 at each
    new diagonal position, and its smallest nonzero entry is the pivot.  Its column is
    cleared with round-to-nearest quotients; a remainder, at most half the
    pivot, becomes the next pivot at once.  Only once the column is clear
    is the pivot's row cleared the same way, which then changes the pivot
    row alone.  A cleared pivot p becomes gcd(p, m), and a row holding an
    entry it does not divide is added to the pivot row.  Each pass hands
    over to a remainder at most half the pivot before it, so the growth the
    passes allow telescopes and every entry stays polynomial in m.
    """
    if m == 1:
        return [1] * count
    a = [list(row) for row in rows if any(row)]
    k, n = len(a), len(rows[0]) if rows else 0
    half = m // 2
    factors: list[int] = []
    for t in range(count - 1):
        a[t:] = [[(v + half) % m - half for v in row] for row in a[t:]]
        sizes = [abs(v) for row in a[t:] for v in row[t:]]
        best = min(filter(None, sizes), default=0)
        if not best:
            return factors + [m] * (count - t)
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
            for i in range(t + 1, k):
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
            g = top[t] = gcd(p, m)
            bad = g > 1 and next((row for row in a[t + 1:] if any(v % g for v in row)), None)
            if not bad:
                break
            a[t] = [x + y for x, y in zip(top, bad)]
            pivot = (t, t)
        factors.append(g)
    return factors + [gcd(m, *(v for row in a[count - 1:] for v in row[count - 1:]))]


def _rank_and_minor(rows: "Sequence[Sequence[int]]") -> tuple[int, int, int]:
    """Rank r of an integer matrix, |M| for a nonzero r x r minor M, and g.

    Fraction-free (Bareiss) elimination: after k pivots every entry it
    holds is a (k+1) x (k+1) minor of the input (Sylvester's identity), so
    nothing grows past Hadamard's bound, and the last pivot is M.  g is for
    a square nonsingular n x n input: after n-2 pivots the trailing 2 x 2
    block holds four (n-1)-minors, and g is their gcd with |M| (1 if n = 1).
    """
    block = [row for row in rows if any(row)]  # what is left to eliminate
    rank, prev, trail = 0, 1, 0 if len(block) > 1 else 1
    while block and block[0]:
        if len(block) == len(block[0]) == 2:
            trail = gcd(*block[0], *block[1])
        for k, top in enumerate(block):
            if top[0]:
                break
        else:  # no pivot in this column
            block = [row[1:] for row in block]
            continue
        del block[k]
        p = top[0]
        for i, row in enumerate(block):
            v = row[0]
            block[i] = [(p * x - v * y) // prev for x, y in zip(row, top)][1:]
        rank, prev = rank + 1, p
    return rank, abs(prev), gcd(trail, prev)


# --------------------------------------------------------------------------
# chain complexes


def chain_homology(boundaries: "Sequence[IntMatrix]") -> GradedAbelianGroup:
    """Homology of a chain complex given by boundary matrices [d1, ..., dN].

    ``boundaries[k-1]`` is the degree-k boundary map C_k -> C_{k-1}, stored
    with rows indexed by C_{k-1} and columns by C_k; zero maps must still
    be passed (with the right shape) because the matrices carry the chain
    group dimensions.  Requires N <= 5, matching shapes, and d.d = 0,
    checked entry by entry, each nonzero row of one boundary against each
    nonzero column of the next, without building the products; a pair with
    a zero boundary is not checked.  Each boundary's nonzero rows are found
    once, for that check and for smith_normal_form's one route; a zero
    boundary has rank 0 and no torsion, and is not eliminated.  The
    invariant factors are a positive divisibility chain, so each degree's
    torsion is that chain with its leading 1s sliced off, and the group is
    built from it as given, with no second check of ranks or entries.
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
    rows = [[row for row in b.entries if any(row)] for b in boundaries]  # the nonzero rows
    for k in range(n_top - 1):
        if rows[k] and rows[k + 1]:  # a zero boundary composes to zero
            cols = [col for col in zip(*boundaries[k + 1].entries) if any(col)]
            if any(sum(map(mul, row, col)) for row in rows[k] for col in cols):
                raise ChainComplexError(f"not a chain complex: d{k + 1}.d{k + 2} != 0")

    torsion = [_snf_factors(r) if r else () for r in rows] + [()]
    ranks = [0, *map(len, torsion)]  # of d_0 .. d_{N+1}, both ends zero maps
    groups = [(dims[k] - ranks[k] - ranks[k + 1], torsion[k][torsion[k].count(1):])
              for k in range(n_top + 1)]
    return GradedAbelianGroup._as_given(tuple(groups + [(0, ())] * (MAX_DEGREE - n_top)))


# --------------------------------------------------------------------------
# homology of manifold specs and of space terms


def homology_of_manifold(spec: ManifoldSpec) -> GradedAbelianGroup:
    """Integral homology of the described 4-manifold, degrees 0..4.

    H_1 carries the abelianized fundamental group; H_2 adds the same
    torsion to Z^b2 (universal coefficients plus duality); H_3 is the free
    part of H_1 by duality; H_0 and H_4 are Z.
    """
    m = spec.pi1.free_rank
    torsion = tuple(sorted(p**r for p, r in spec.pi1.cyclic_factors))
    return GradedAbelianGroup._as_given(
        ((1, ()), (m, torsion), (spec.b2, torsion), (m, ()), (1, ()), (0, ())))


def homology_of_term(term: _t.SpaceTerm) -> GradedAbelianGroup:
    """Unreduced integral homology of a space term (a Z in degree 0).

    One pass adds each (summand, count) block's count to a rank, or a
    Moore modulus, as it is, count times to the torsion, checking each
    degree where it writes it; so P^2(6) gives Z/6, and the cost is linear
    in the number of distinct summands plus the torsion written out.
    """
    ranks = [1] + [0] * MAX_DEGREE
    torsion: list[list[int]] = [[] for _ in ranks]
    for atom, count in _t.as_wedge(term).blocks:
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
            torsion[deg] += [atom.modulus] * count
    return GradedAbelianGroup._as_given(
        tuple([(rank, tuple(sorted(parts))) for rank, parts in zip(ranks, torsion)]))


# --------------------------------------------------------------------------
# matrix grammar (shared with the command line)


_BAD_SHAPE = "bad matrix syntax: expected a bracketed list of bracketed rows"


def parse_matrix(text: str) -> IntMatrix:
    """Parse row-major bracket syntax: ``[[1,0],[0,1]]``; ``[]`` is 0 x 0.  Each entry is
    read by ``value.decimal``: a sign and leading zeros are accepted, whitespace ignored."""
    body = text.strip()
    head, *parts = body[1:-1].strip().split("[")  # each row is a part up to its "]"
    if body[:1] != "[" or body[-1:] != "]" or head:
        raise ValueError(_BAD_SHAPE)
    rows = []
    for i, part in enumerate(parts, 1):  # a comma after each row but the last
        row, close, after = part.partition("]")
        if not close or after.strip() != ("," if i < len(parts) else ""):
            raise ValueError(_BAD_SHAPE)
        rows.append(row)
    return IntMatrix.from_rows([
        [decimal(entry.strip(), "bad matrix syntax: an entry", ValueError,
                 "bad matrix entry: {!r}".format) for entry in row.split(",")]
        if row.strip() else [] for row in rows])
