"""Shared helpers: seeded random generators for specs, terms, matrices and
conjugated handle chain complexes, graded groups from sparse degrees, the
acceptance-criteria verdict report, a per-test hang guard, a count of the
lines gauge4 runs for a call, and the gauge half of a splitting, as gauge4
writes it and as written here one factor per copy from terms.loop_pair."""

import random
import signal
import sys
from pathlib import Path

import pytest

from gauge4 import (SYMBOLIC, GradedAbelianGroup, IntMatrix, ManifoldSpec, Moore, Pi1Descriptor,
                    Sphere, SuspCP2, Wedge, render_decomposition)
from gauge4.arith import MAX_COPIES
from gauge4.homology import MAX_DEGREE
from gauge4.terms import loop_pair

# bench/oracles.py, the benchmark's checks that import no gauge4, serves the tests too
sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))

ODD_PRIMES = (3, 5, 7, 11)

_ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.line(line)


#: Wall-clock seconds a test using hang_guard may run before it fails.
HANG_GUARD_S = 5.0


@pytest.fixture
def hang_guard():
    """Fail the test, rather than hang the suite, once it runs HANG_GUARD_S.

    A real-time interval timer delivers SIGALRM to the main thread, where
    the handler fails the test from whatever Python code is running.
    """

    def expire(signum, frame):
        pytest.fail(f"still running after the {HANG_GUARD_S} s hang guard", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, HANG_GUARD_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def line_events(fn, *args, limit=None) -> int:
    """The line events sys.settrace reports in gauge4's own frames while fn(*args)
    runs: a cost that, unlike a clock, is the same on every run and every machine.
    Past a limit the test fails at once, so a call that would run far longer stops there."""
    count = 0

    def count_lines(frame, event, arg):
        nonlocal count
        count += event == "line"
        if limit is not None and count > limit:
            pytest.fail(f"more than {limit} line events in gauge4", pytrace=False)
        return count_lines

    def enter(frame, event, arg):
        return count_lines if frame.f_globals.get("__name__", "").startswith("gauge4") else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


def graded(parts) -> GradedAbelianGroup:
    """The graded group of a sparse {degree: (rank, torsion)} mapping, zero elsewhere."""
    groups = [(0, ())] * (MAX_DEGREE + 1)
    for deg, (rank, torsion) in parts.items():
        if not 0 <= deg <= MAX_DEGREE:
            raise ValueError(f"degree {deg} outside 0..{MAX_DEGREE}")
        groups[deg] = (rank, tuple(torsion))
    return GradedAbelianGroup(groups)


def random_pi1(rng: random.Random, max_free=5, max_cyclic=4, max_r=3) -> Pi1Descriptor:
    m = rng.randint(0, max_free)
    k = rng.randint(0, max_cyclic)
    factors = tuple((rng.choice(ODD_PRIMES), rng.randint(1, max_r)) for _ in range(k))
    return Pi1Descriptor(m, factors)


def random_spec(rng: random.Random, **kw) -> ManifoldSpec:
    pi1 = random_pi1(rng, **kw)
    b2 = rng.randint(0, 6)
    # The nontrivial top-cell flag needs a 2-cell to hang the CP^2 block on.
    trivial = True if b2 == 0 else rng.random() < 0.5
    return ManifoldSpec(pi1, b2, trivial)


def random_atom(rng: random.Random):
    roll = rng.randrange(3)
    if roll == 0:
        return Sphere(rng.randint(1, 5))
    if roll == 1:
        return Moore(rng.randint(2, 5), rng.randint(2, 30))
    return SuspCP2()


def random_term(rng: random.Random, depth=2):
    """An arbitrary (possibly nested, unnormalized) space term."""
    roll = rng.randrange(8)
    if roll == 0:
        return Wedge(())  # the point
    if roll <= 4 or depth == 0:
        return random_atom(rng)
    parts = tuple((random_term(rng, depth - 1), 1) for _ in range(rng.randint(0, 4)))
    return Wedge(parts)


def expand(blocks) -> list:
    """Each item of (item, count) blocks, count times: a splitting one entry per copy."""
    out = []
    for item, count in blocks:
        out += [item] * count
    return out


def gauge_half(dec) -> str:
    """The gauge half of dec as render_decomposition writes it: ``G_t(M) = ...``,
    or ``G_t(M) x (O^2G)^{2d} ~ ...`` for a stabilized splitting."""
    return render_decomposition(dec).partition("; ")[2]


def gauge_product(dec) -> str:
    """The product ``G_t(base) x ...`` that the gauge half of dec is written with."""
    return gauge_half(dec).partition(" = " if dec.stabilization == 0 else " ~ ")[2]


def loop_text(summand) -> str:
    """The text of Map*(summand, G), O^kG or O^kG{q}, from terms.loop_pair."""
    order, modulus = loop_pair(summand)
    return f"O^{order}G" if modulus is None else f"O^{order}G{{{modulus}}}"


def product_every_copy(dec) -> str:
    """The product G_t(base) x Map*(summand, G) x ... of dec, one factor per copy
    of each summand after the base, joined by hand.  With a symbolic d, the S^3
    copies, present or not, are the one factor (O^2G)^{n+2d}, or (O^2G)^{2d},
    after every summand of dimension 4.  More than MAX_COPIES factors raise
    ValueError with the line a written answer gives."""
    rest = dec.suspension.blocks[1:]
    pieces = [(loop_text(atom), n) for atom, n in rest]
    if dec.stabilization == SYMBOLIC:
        at, n = sum(atom.dim == 4 for atom, _ in rest), dict(rest).get(Sphere(3), 0)
        pieces[at : at + 1 if n else at] = [(f"(O^2G)^{{{n}+2d}}" if n else "(O^2G)^{2d}", 1)]
    total = sum(n for _, n in pieces)
    if total > MAX_COPIES:
        raise ValueError(f"the answer writes out {total} copies, more than the limit of 10**6")
    base = {"S4": "S^4", "CP2": "CP^2"}[dec.base]
    return " x ".join([f"G_{dec.t}({base})", *expand(pieces)])


def random_matrix_rows(rng: random.Random, max_side=4, bound=9):
    rows = rng.randint(1, max_side)
    cols = rng.randint(1, max_side)
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def unimodular(rng, n):
    """A seeded unimodular n x n matrix and its inverse, from 3n elementary
    row operations with multipliers +-1 and +-2."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in u]
    for _ in range(3 * n if n >= 2 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        for row in inv:
            row[j] -= c * row[i]
    return u, inv


def matmul(a, b, inner, cols):
    return [[sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols)] for row in a]


def handle_complex(rng, spec):
    """Boundary maps d1..d4 of a handle decomposition of M, conjugated.

    C_1 = Z^{m+k}, C_2 = Z^{b2+2k}, C_3 = Z^{m+k}: the 2-cell r_i bounds
    q_i times the 1-cell x_i, and the 3-cell dual to x_i bounds q_i times
    the 2-cell dual to r_i.  d_j becomes U_{j-1} d_j U_j^{-1}.
    """
    m, b2 = spec.pi1.free_rank, spec.b2
    moduli = [p**r for p, r in spec.pi1.cyclic_factors]
    k = len(moduli)
    dims = [1, m + k, b2 + 2 * k, m + k, 1]
    d = [[[0] * dims[j] for _ in range(dims[j - 1])] for j in range(1, 5)]
    for i, q in enumerate(moduli):
        d[1][m + i][b2 + i] = q
        d[2][b2 + k + i][m + i] = q
    basis = [unimodular(rng, n) for n in dims]
    out = []
    for j in range(1, 5):
        r, c = dims[j - 1], dims[j]
        conj = matmul(matmul(basis[j - 1][0], d[j - 1], r, c), basis[j][1], c, c)
        out.append(IntMatrix.from_rows(conj, c))
    return out
