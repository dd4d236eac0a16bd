"""Shared helpers: seeded random generators for specs, terms, matrices and
conjugated handle chain complexes, the acceptance-criteria verdict report,
and a per-test hang guard."""

import random
import signal

import pytest

from gauge4 import IntMatrix, ManifoldSpec, Moore, Pi1Descriptor, Point, Sphere, SuspCP2, Wedge

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
        return Point()
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
