"""The four workloads: seeded inputs, the timed calls into gauge4, and checks.

A workload is a list of rounds.  ``make_round(rng)`` builds one round of
operations from a seeded generator, always with the same composition, so
every run attempts whole rounds of the same kinds of operation and the
share of failed operations does not depend on the seed.
``run(api, *args)`` is the timed part: it calls the program through
``api``, whose attributes are gauge4's public functions (wrapped in spans
by the traced run).  ``check(result, counts, *args)`` is untimed: it
verifies the result with the oracles and adds to the work counts.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

import gauge4
from gauge4 import IntMatrix, LieGroupSpec, ManifoldSpec, Pi1Descriptor, cli

import oracles as o
from oracles import Spec, expect

#: Each layer the benchmark calls into, by module and function.
LAYERS = {
    "manifold.parse_pi1": gauge4.parse_pi1,
    "decomposer.decompose": gauge4.decompose,
    "decomposer.render_decomposition": gauge4.render_decomposition,
    "homology.homology_of_manifold": gauge4.homology_of_manifold,
    "homology.smith_normal_form": gauge4.smith_normal_form,
    "homology.chain_homology": gauge4.chain_homology,
    "classifier.classify": gauge4.classify,
    "cli.run": cli.run,
}

#: Work counts, read from inputs and outputs, with their units.
COUNTS = {
    "decomposer.summands": "count",
    "decomposer.render_bytes": "bytes",
    "homology.snf_cells": "count",
    "arith.modulus_bits": "bits",
}


class Op(NamedTuple):
    kind: str
    args: tuple
    fault: bool = False


GROUPS = (("SU", 2), ("SU", 3), ("SU", 4), ("SU", 5), ("Sp", 1), ("Sp", 2), ("Sp", 3), ("G2", None))
GCD_RULE_GROUPS = (("SU", 2), ("SU", 3))
SMALL_PRIMES = (3, 5, 7, 11, 13)
LOCAL_PRIMES = (2, 3, 5, 7, 11, 13)
CASES = ("trivial", "free", "cyclic", "mixed")


def small_pair(rng: random.Random) -> tuple[int, int]:
    p = rng.choice(SMALL_PRIMES)
    return p, rng.randint(1, 3 if p <= 7 else 2)


def gen_spec(rng: random.Random, case: str, b2: int | None = None, n_cyclic: int | None = None):
    """A census spec of one pi1 case, with the (p, r) pairs of its moduli."""
    m, pairs = 0, []
    if case == "free":
        m = rng.randint(1, 4)
    elif case == "cyclic":
        pairs = [small_pair(rng)]
    elif case == "mixed":
        m = rng.randint(0, 3)
        k = n_cyclic if n_cyclic is not None else rng.randint(1 if m else 2, 3)
        pairs = [small_pair(rng) for _ in range(k)]
    b2 = rng.randint(0, 12) if b2 is None else b2
    spin = b2 == 0 or rng.random() < 0.5
    return Spec(m, tuple(p**r for p, r in pairs), b2, spin), tuple(pairs)


def to_manifold(spec: Spec, pairs) -> ManifoldSpec:
    return ManifoldSpec(Pi1Descriptor(spec.m, pairs), spec.b2, spec.spin)


def pi1_text(rng: random.Random, spec: Spec) -> str:
    """The group written with its atoms in a shuffled order."""
    atoms = ["Z"] * spec.m + [f"Z/{q}" for q in spec.moduli]
    rng.shuffle(atoms)
    return "*".join(atoms) or "1"


def log_spread(rng: random.Random, i: int, n: int, lo: float, hi: float) -> int:
    """The midpoint of the i-th of n log-uniform strata of [10^lo, 10^hi],
    give or take 5%.

    The narrow jitter keeps the work in a round nearly the same for every
    seed, so that the seed moves the figures far less than a change would.
    """
    return int(10 ** (lo + (hi - lo) * (i + 0.5) / n) * rng.uniform(0.95, 1.05))


def dense(rng: random.Random, n: int) -> list[list[int]]:
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]


def lib_verdict(v) -> o.Verdict:
    rule = v.rule_used
    return o.Verdict(v.integral, dict(v.local), v.stabilized,
                     rule.k if rule else None, rule.scope if rule else None)


def pick_gauge_query(rng: random.Random, spec: Spec):
    """(group, spec, t, s): half the time a group under the gcd rule on a
    spin M, else any group with s random, s = -t, or s = t + PERIOD."""
    t = rng.randint(-60, 60)
    if rng.random() < 0.5:
        group = rng.choice(GCD_RULE_GROUPS)
        return group, spec._replace(spin=True), t, rng.randint(-60, 60)
    s = rng.choice((rng.randint(-60, 60), -t, t + o.PERIOD))
    return rng.choice(GROUPS), spec, t, s


# --------------------------------------------------------------------------
# census: the everyday library query


def census_round(rng: random.Random) -> list[Op]:
    ops = []
    for case in CASES:
        for _ in range(16):
            spec, _ = gen_spec(rng, case)
            d = rng.choice((None, rng.randint(1, 4))) if spec.mixed else None
            group, spec, t, s = pick_gauge_query(rng, spec)
            primes = tuple(rng.sample(LOCAL_PRIMES, rng.randint(1, 3)))
            args = (pi1_text(rng, spec), spec, t, d, group, LieGroupSpec(*group), s, primes)
            ops.append(Op("census", args))
    rng.shuffle(ops)
    return ops


def run_census(api, text, spec, t, d, group, lie, s, primes):
    pi1 = api.parse_pi1(text)
    mspec = ManifoldSpec(pi1, spec.b2, spec.spin)
    dec = api.decompose(mspec, t, d=d)
    line = api.render_decomposition(dec)
    hom = api.homology_of_manifold(mspec)
    verdict = api.classify(lie, mspec, t, s, primes)
    return pi1, mspec, line, hom, verdict


def check_census(result, counts, text, spec, t, d, group, lie, s, primes):
    pi1, mspec, line, hom, verdict = result
    o.check_pi1(pi1.free_rank, pi1.cyclic_factors, spec.m, spec.moduli)
    counts["decomposer.summands"] += o.check_decomposition_text(line, spec, t, d)
    counts["decomposer.render_bytes"] += len(line.encode())
    o.check_homology(hom.groups, spec)
    v = lib_verdict(verdict)
    o.check_verdict(v, group, spec, t, s, primes)
    others = [lib_verdict(gauge4.classify(lie, mspec, a, b, primes))
              for a, b in ((s, t), (t, t), (t + o.PERIOD, s))]
    o.check_verdict_laws(v, *others, t, s)
    counts["arith.modulus_bits"] += _bits(spec.moduli) + _bits(primes)


def _bits(values) -> int:
    return sum(v.bit_length() for v in values)


# --------------------------------------------------------------------------
# cli: the same kinds of query through gauge4.cli.run, text and --json

SUBCOMMANDS = ("decompose", "suspension", "homology", "classify", "snf", "parse")


def spec_flags(rng: random.Random, spec: Spec) -> list[str]:
    flags = ["--pi1", pi1_text(rng, spec), "--b2", str(spec.b2)]
    style = rng.randrange(3)
    if style == 1:
        flags += ["--sigma-f", "trivial" if spec.spin else "nontrivial"]
    elif style == 2:
        flags += ["--spin", "true" if spec.spin else "false"]
    elif not spec.spin:
        flags += ["--sigma-f", "nontrivial"]
    return flags


def d_flags(rng: random.Random, spec: Spec):
    """(argv, d): --d left out, ``symbolic``, or a small count."""
    if not spec.mixed:
        return [], None
    choice = rng.randrange(3)
    if choice == 0:
        return [], None
    if choice == 1:
        return ["--d", "symbolic"], None
    d = rng.randint(1, 4)
    return ["--d", str(d)], d


def cli_query(rng: random.Random, sub: str, as_json: bool) -> Op:
    spec, _ = gen_spec(rng, rng.choice(CASES))
    extra: dict = {}
    if sub in ("decompose", "suspension"):
        flags, extra["d"] = d_flags(rng, spec)
        if sub == "decompose":
            extra["t"] = rng.randint(-20, 20)
            flags += ["--t", str(extra["t"])]
        argv = [sub, *spec_flags(rng, spec), *flags]
    elif sub == "homology":
        extra["suspended"] = rng.random() < 0.5
        argv = [sub, *spec_flags(rng, spec)] + (["--suspension"] if extra["suspended"] else [])
    elif sub == "classify":
        group, spec, t, s = pick_gauge_query(rng, spec)
        primes = rng.sample(LOCAL_PRIMES, rng.randint(0, 3))
        extra.update(group=group, t=t, s=s, primes=primes)
        name = "G2" if group[0] == "G2" else f"{group[0]}({group[1]})"
        argv = [sub, *spec_flags(rng, spec), "--group", name, "--t", str(t), "--s", str(s),
                "--primes", ",".join(map(str, primes))]
    elif sub == "snf":
        extra["rows"] = dense(rng, rng.randint(1, 4))
        argv = [sub, "--matrix", json.dumps(extra["rows"])]
    else:
        argv = [sub, *spec_flags(rng, spec)]
    if as_json:
        argv.append("--json")
    return Op("cli", (argv, sub, as_json, spec, extra))


def cli_round(rng: random.Random) -> list[Op]:
    ops = [cli_query(rng, sub, as_json)
           for sub in SUBCOMMANDS for as_json in (False, True) for _ in range(2)]
    rng.shuffle(ops)
    return ops


def run_cli(api, argv, *_):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = api.run(argv)
    return code, out.getvalue(), err.getvalue()


def check_cli(result, counts, argv, sub, as_json, spec, extra):
    code, out, err = result
    expect(code == 0 and err == "", f"{argv}: exit {code}, stderr {err!r}")
    expect(out.endswith("\n"), f"{argv}: output {out!r} does not end a line")
    text = out[:-1]
    expect(not as_json or "\n" not in text, f"{argv}: JSON spans several lines")
    doc = o.read_json(text) if as_json else None
    if sub == "decompose":
        if as_json:
            counts["decomposer.summands"] += o.check_decomposition_json(doc, spec, extra["t"], extra["d"])
        else:
            counts["decomposer.summands"] += o.check_decomposition_text(text, spec, extra["t"], extra["d"])
            counts["decomposer.render_bytes"] += len(text.encode())
    elif sub == "suspension":
        if as_json:
            counts["decomposer.summands"] += o.check_decomposition_json(doc, spec, None, extra["d"])
        else:
            counts["decomposer.summands"] += o.check_suspension_text(text, spec, extra["d"])
            counts["decomposer.render_bytes"] += len(text.encode())
    elif sub == "homology":
        groups = o.read_homology_json(doc) if as_json else o.read_homology_text(text)
        o.check_homology(groups, spec, extra["suspended"])
    elif sub == "classify":
        v = o.read_verdict_json(doc) if as_json else o.read_verdict_text(text)
        o.check_verdict(v, extra["group"], spec, extra["t"], extra["s"], extra["primes"])
        counts["arith.modulus_bits"] += _bits(extra["primes"])
    elif sub == "snf":
        factors, rank = o.read_snf_json(doc) if as_json else o.read_snf_text(text)
        o.check_snf(extra["rows"], factors, rank)
        counts["homology.snf_cells"] += len(extra["rows"]) ** 2
        return
    elif as_json:
        o.check_parse_json(doc, spec)
    else:
        o.check_parse_text(text, spec)
    counts["arith.modulus_bits"] += _bits(spec.moduli)


# --------------------------------------------------------------------------
# scale: decompose + render on large b2, large d, and many cyclic factors


def scale_round(rng: random.Random) -> list[Op]:
    ops = []
    for i in range(10):  # b2 from 10^2 to 10^5, pi1 split on the nose
        spec, pairs = gen_spec(rng, rng.choice(CASES[:3]), b2=log_spread(rng, i, 10, 2, 5))
        ops.append(Op("scale", (spec, to_manifold(spec, pairs), rng.randint(-20, 20), None)))
    for i in range(10):  # mixed pi1 stabilized with d from 10^2 to 10^5
        spec, pairs = gen_spec(rng, "mixed")
        d = log_spread(rng, i, 10, 2, 5)
        ops.append(Op("scale", (spec, to_manifold(spec, pairs), rng.randint(-20, 20), d)))
    # Symbolic d with 10 to 10^3 cyclic factors.  Their sizes keep them at or
    # below the median, which then falls inside a group of near-equal times
    # rather than between two groups, and so stays put from run to run.
    for i in range(5):
        spec, pairs = gen_spec(rng, "mixed", b2=log_spread(rng, i, 5, 2, 2.5),
                               n_cyclic=log_spread(rng, i, 5, 1, 3))
        ops.append(Op("scale", (spec, to_manifold(spec, pairs), rng.randint(-20, 20), None)))
    rng.shuffle(ops)
    return ops


def run_scale(api, spec, mspec, t, d):
    return api.render_decomposition(api.decompose(mspec, t, d=d))


def check_scale(line, counts, spec, mspec, t, d):
    counts["decomposer.summands"] += o.check_decomposition_text(line, spec, t, d)
    counts["decomposer.render_bytes"] += len(line.encode())


# --------------------------------------------------------------------------
# exact: Smith normal form, chain complexes, large prime moduli

#: Fault (a): Smith normal form lets its coefficients grow without bound on
#: dense matrices of side 7 or more.  A fixed 8x8 input, never seeded.
FAULT_MATRIX = dense(random.Random("fault a: dense 8x8"), 8)
#: Fault (b): trial division on 2^61 - 1, through parse_pi1 and classify.
MERSENNE_61 = 2**61 - 1


def unimodular(rng: random.Random, n: int):
    """A seeded unimodular n x n matrix and its inverse, from ceil(n/2)
    elementary row operations with multipliers +-1."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in u]
    for _ in range((n + 1) // 2 if n >= 2 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        for row in inv:
            row[j] -= c * row[i]
    return u, inv


def _mul(a, b, rows, inner, cols):
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)] for i in range(rows)]


def cellular_complex(rng: random.Random, spec: Spec) -> list[IntMatrix]:
    """Boundary maps d1..d4 of a handle complex of M, conjugated.

    C_1 = Z^{m+k}, C_2 = Z^{b2+2k}, C_3 = Z^{m+k}, C_0 = C_4 = Z.  The
    2-cell r_i bounds q_i times the 1-cell x_i, and the 3-cell dual to x_i
    bounds q_i times the dual 2-cell s_i; every other boundary is 0.
    Each d_j becomes U_{j-1} d_j U_j^{-1} for seeded unimodular U_j.
    """
    m, k, b2 = spec.m, len(spec.moduli), spec.b2
    dims = [1, m + k, b2 + 2 * k, m + k, 1]
    d = [[[0] * dims[j] for _ in range(dims[j - 1])] for j in range(1, 5)]
    for i, q in enumerate(spec.moduli):
        d[1][m + i][b2 + i] = q
        d[2][b2 + k + i][m + i] = q
    basis = [unimodular(rng, n) for n in dims]
    out = []
    for j in range(1, 5):
        r, c = dims[j - 1], dims[j]
        conj = _mul(_mul(basis[j - 1][0], d[j - 1], r, r, c), basis[j][1], r, c, c)
        out.append(IntMatrix.from_rows(conj, c))
    return out


def next_prime(n: int) -> int:
    while not o.is_prime(n):
        n += 1
    return n


def exact_round(rng: random.Random) -> list[Op]:
    ops = []
    for n in (2, 3, 4):
        for _ in range(80):
            rows = dense(rng, n)
            ops.append(Op("snf", (rows, IntMatrix.from_rows(rows))))
    # At most one cyclic factor per complex: with two or more coprime moduli
    # a conjugated complex now and then runs into fault (a), which would make
    # the failed count depend on the seed.
    for i in range(240):
        spec, _ = gen_spec(rng, CASES[i % 4], n_cyclic=1)
        ops.append(Op("chain", (spec, cellular_complex(rng, spec))))
    for i in range(288):  # prime moduli from 10^9 to 10^10, log-uniform
        p = next_prime(log_spread(rng, i, 288, 9, 10))
        spec, pairs = gen_spec(rng, rng.choice(CASES))
        if i % 2:
            spec = spec._replace(moduli=spec.moduli + (p,))
            ops.append(Op("parse_big", (pi1_text(rng, spec), spec)))
        else:
            spec = spec._replace(spin=True)
            group = rng.choice(GCD_RULE_GROUPS)
            primes = tuple(rng.sample(LOCAL_PRIMES, rng.randint(0, 2))) + (p,)
            ops.append(Op("classify_big", (group, LieGroupSpec(*group), spec, to_manifold(spec, pairs),
                                           rng.randint(-60, 60), rng.randint(-60, 60), primes)))
    ops += fault_ops()
    rng.shuffle(ops)
    return ops


def fault_ops() -> list[Op]:
    """The three inputs that fail under faults (a) and (b); never seeded."""
    rows = FAULT_MATRIX
    spec = Spec(0, (), 4, True)
    return [
        Op("snf", (rows, IntMatrix.from_rows(rows)), fault=True),
        Op("parse_big", (f"Z*Z/{MERSENNE_61}", Spec(1, (MERSENNE_61,), 0, True)), fault=True),
        Op("classify_big", (("SU", 2), LieGroupSpec("SU", 2), spec, to_manifold(spec, ()),
                            1, 2, (MERSENNE_61,)), fault=True),
    ]


def run_snf(api, rows, mat):
    return api.smith_normal_form(mat)


def check_snf(result, counts, rows, mat):
    o.check_snf(rows, result.invariant_factors, result.rank)
    counts["homology.snf_cells"] += mat.rows * mat.cols


def run_chain(api, spec, boundaries):
    return api.chain_homology(boundaries)


def check_chain(result, counts, spec, boundaries):
    o.check_homology(result.groups, spec)
    counts["homology.snf_cells"] += sum(b.rows * b.cols for b in boundaries)


def run_parse_big(api, text, spec):
    return api.parse_pi1(text)


def check_parse_big(pi1, counts, text, spec):
    o.check_pi1(pi1.free_rank, pi1.cyclic_factors, spec.m, spec.moduli)
    counts["arith.modulus_bits"] += _bits(spec.moduli)


def run_classify_big(api, group, lie, spec, mspec, t, s, primes):
    return api.classify(lie, mspec, t, s, primes)


def check_classify_big(verdict, counts, group, lie, spec, mspec, t, s, primes):
    o.check_verdict(lib_verdict(verdict), group, spec, t, s, primes)
    counts["arith.modulus_bits"] += _bits(primes)


# --------------------------------------------------------------------------


class Workload(NamedTuple):
    name: str
    make_round: object
    #: Per-operation deadline, in seconds of CPU time.
    deadline_s: float
    #: Rounds a run attempts per second of --seconds: about the rounds a
    #: second holds where the reference kernel takes REFERENCE_S.
    rounds_per_s: float
    #: Which modules a fresh interpreter imports as this workload's set-up.
    setup_modules: tuple[str, ...] = ("gauge4",)


#: kind -> (timed call, untimed check)
KINDS = {
    "census": (run_census, check_census),
    "cli": (run_cli, check_cli),
    "scale": (run_scale, check_scale),
    "snf": (run_snf, check_snf),
    "chain": (run_chain, check_chain),
    "parse_big": (run_parse_big, check_parse_big),
    "classify_big": (run_classify_big, check_classify_big),
}

# Operations that finish take at most a few milliseconds of CPU time in
# exact and about a second in scale; the deadlines sit far above that, so
# an input either finishes well before its deadline or never finishes.
WORKLOADS = {
    "census": Workload("census", census_round, 10.0, 30),
    "cli": Workload("cli", cli_round, 10.0, 16, ("gauge4", "gauge4.cli")),
    "scale": Workload("scale", scale_round, 20.0, 0.35),
    "exact": Workload("exact", exact_round, 0.2, 0.4),
}
