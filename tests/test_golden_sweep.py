"""A seeded sweep of CLI queries and gauge renderings, pinned byte for byte.

``tests/data/golden_sweep.json`` holds, for each query, the argv passed to
``cli.run`` with its exit code, stdout and stderr, and for each seeded gauge
product the text the gauge half of its splitting is written with.  The
sweep covers decompose, suspension, classify and parse in text and
``--json``; ``--d`` omitted, ``symbolic`` and 0-3; both top-cell flags; and
moduli out of order and repeated; then homology (with and without
``--suspension``) and small snf queries; then every ``--d`` spelling on every
pi1 shape, mixed included, for decompose and suspension in text and ``--json``.  The ``verdicts``
section holds the ``repr`` of one verdict at t = s = 1 for SU(2..8), Sp(1..4)
and G2 over every base, which pins the rule each reports (``classify_base`` over
S4, CP2 and the refused RP4, ``classify`` over a manifold with each top-cell
flag), and of seeded ``classify`` and ``classify_base`` verdicts with primes up
to 47, which the CLI cannot reach (no CP2 base, and only a few groups above).
This is the one table of pinned CLI answers.  Rewrite it only for a deliberate output change:

    PYTHONPATH=src python tests/test_golden_sweep.py
"""

import contextlib
import io
import json
import pathlib
import random
import sys

import pytest

from conftest import gauge_product
from gauge4 import (
    SYMBOLIC,
    Decomposition,
    Moore,
    Pi1Kind,
    Sphere,
    SuspCP2,
    Wedge,
    classify,
    classify_base,
    decompose,
    manifold,
    parse_group,
)
from gauge4.cli import _spec_from_args, parse_argv, run

DATA = pathlib.Path(__file__).parent / "data" / "golden_sweep.json"

SEED = 20161

PI1_ATOMS = ("Z", "Z/3", "Z/9", "Z/27", "Z/5", "Z/25", "Z/7", "Z/11", "Z/125")
GROUPS = ("SU(2)", "SU(3)", "SU(5)", "Sp(2)", "Sp(3)", "G2")


def _pi1(rng: random.Random) -> str:
    roll = rng.randrange(6)
    if roll == 0:
        return "1"
    atoms = [rng.choice(PI1_ATOMS) for _ in range(rng.randint(1, 4))]
    if roll == 1 and atoms[-1] != "Z":
        atoms.append(atoms[-1])  # a repeated modulus, e.g. Z/3*Z/3
    rng.shuffle(atoms)  # out of order, e.g. Z/9*Z/5
    return "*".join(atoms)


def _flags(rng: random.Random) -> list[str]:
    b2 = rng.choice((0, 0, 1, 2, 3, 5, 8))
    argv = ["--pi1", _pi1(rng), "--b2", str(b2)]
    roll = rng.randrange(5)
    nontrivial = b2 > 0 and rng.random() < 0.5
    if roll == 1:
        argv += ["--sigma-f", "nontrivial" if nontrivial else "trivial"]
    elif roll == 2:
        argv += ["--spin", "false" if nontrivial else "true"]
    elif roll == 3:
        argv += ["--sigma-f", "nontrivial" if nontrivial else "trivial",
                 "--spin", "false" if nontrivial else "true"]
    return argv


def _d(rng: random.Random) -> list[str]:
    choice = rng.choice((None, "symbolic", "0", "1", "2", "3"))
    return [] if choice is None else ["--d", choice]


def sweep_argvs(n: int = 300) -> list[list[str]]:
    """The seeded queries, in order; the same list on every call."""
    rng = random.Random(SEED)
    argvs = []
    for i in range(n):
        command = ("decompose", "suspension", "classify", "parse")[i % 4]
        argv = [command, *_flags(rng)]
        if command == "decompose":
            argv += ["--t", str(rng.randint(-6, 12)), *_d(rng)]
        elif command == "suspension":
            argv += _d(rng)
        elif command == "classify":
            primes = rng.sample((2, 3, 5, 7, 11, 13, 17, 19, 23), rng.randint(0, 4))
            argv += ["--group", rng.choice(GROUPS),
                     "--t", str(rng.randint(-30, 30)), "--s", str(rng.randint(-30, 30)),
                     "--primes", ",".join(map(str, primes))]
        if rng.random() < 0.5:
            argv.append("--json")
        argvs.append(argv)
    return argvs


def sweep_homology_snf_argvs(n: int = 80) -> list[list[str]]:
    """Seeded homology and snf queries, alternating; appended to the CLI sweep."""
    rng = random.Random(SEED + 2)
    argvs = []
    for i in range(n):
        if i % 2 == 0:
            argv = ["homology", *_flags(rng)]
            if rng.random() < 0.5:
                argv.append("--suspension")
        else:
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            matrix = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            argv = ["snf", "--matrix", json.dumps(matrix)]
        if rng.random() < 0.5:
            argv.append("--json")
        argvs.append(argv)
    return argvs


STABILIZATION_PI1 = ("1", "Z", "Z/3", "Z*Z/3", "Z/3*Z/5")
STABILIZATION_D = (None, "symbolic", "-2", "0", "3", "x", "1.5", "-0")


def stabilization_argvs() -> list[list[str]]:
    """decompose and suspension x pi1 x --d (None: omitted) x text and --json;
    appended to the CLI sweep after the homology and snf queries."""
    return [
        [command, "--pi1", pi1, "--b2", "1", *([] if d is None else ["--d", d]), *fmt]
        for command in ("decompose", "suspension")
        for pi1 in STABILIZATION_PI1
        for d in STABILIZATION_D
        for fmt in ([], ["--json"])
    ]


VERDICT_GROUPS = (*(f"SU({n})" for n in range(2, 9)), *(f"Sp({n})" for n in range(1, 5)), "G2")
#: (base, spin) pairs: the bare bases, then the manifold with each top-cell flag.
VERDICT_BASES = (("S4", None), ("CP2", None), ("manifold", True), ("manifold", False))
VERDICT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def sweep_verdict_queries(n: int = 400) -> list[dict]:
    """One verdict at t = s = 1 on every (group, base) pair and on the rejected
    base RP4, then seeded classify_base and classify queries."""
    queries = []
    for group in VERDICT_GROUPS:
        for base, spin in (*VERDICT_BASES, ("RP4", None)):
            query = {"group": group, "t": 1, "s": 1, "primes": []}
            if base == "manifold":
                query.update(fn="classify", pi1="1", b2=1, spin=spin)
            else:
                query.update(fn="classify_base", base=base)
            queries.append(query)
    rng = random.Random(SEED + 3)
    for _ in range(n):
        base, spin = rng.choice(VERDICT_BASES)
        t = rng.randint(-40, 40)
        s = rng.choice((t, -t, rng.randint(-40, 40), rng.randint(-40, 40)))
        query = {"group": rng.choice(VERDICT_GROUPS), "t": t, "s": s,
                 "primes": sorted(rng.sample(VERDICT_PRIMES, rng.randint(0, 6)))}
        if base == "manifold":
            query.update(fn="classify", pi1=rng.choice(("1", "Z", "Z/9", "Z*Z/3")),
                         b2=rng.randint(1, 3), spin=spin)
        else:
            query.update(fn="classify_base", base=base)
        queries.append(query)
    return queries


def _verdict(query: dict) -> str:
    try:
        return _call(query)
    except ValueError as exc:
        return repr(exc)


def _call(query: dict) -> str:
    group = parse_group(query["group"])
    t, s, primes = query["t"], query["s"], query["primes"]
    if query["fn"] == "classify_base":
        return repr(classify_base(group, query["base"], t, s, primes))
    spec = manifold(query["pi1"], query["b2"], spin=query["spin"])
    return repr(classify(group, spec, t, s, primes))


def sweep_gauges(n: int = 60) -> list[dict]:
    """Seeded gauge products, each a base, t, a list of loop factors (k, q) for
    O^kG or O^kG{q}, and a stabilization count, 0, 2 or SYMBOLIC."""
    rng = random.Random(SEED + 1)
    kinds = [(1, None), (2, None), (3, None), (2, 3), (3, 3), (2, 25), (3, 7), (2, 9)]
    specs = []
    for i in range(n):
        factors = [rng.choice(kinds) for _ in range(rng.randint(0, 6))]
        specs.append({
            "base": rng.choice(("S4", "CP2")),
            "t": rng.randint(-5, 5),
            "factors": [list(f) for f in factors],
            "stabilization": (0, 2, SYMBOLIC)[i % 3],
        })
    return specs


def _gauge(spec: dict) -> str:
    """The product that the gauge half of the splitting spec stands for is written with:
    the base summand, then S^{k+1} or P^{k+1}(q) for each loop factor (k, q) listed."""
    base = Sphere(5) if spec["base"] == "S4" else SuspCP2()
    summands = [Sphere(k + 1) if q is None else Moore(k + 1, q) for k, q in spec["factors"]]
    susp = Wedge([(base, 1), *((summand, 1) for summand in summands)])
    return gauge_product(Decomposition(susp, spec["t"], spec["stabilization"], Pi1Kind.MIXED))


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return {"argv": argv, "code": code, "out": out.getvalue(), "err": err.getvalue()}


#: The CLI sweep as pinned, and its last rows, the stabilization probe,
#: which is checked one row per test.
CLI_ROWS = json.loads(DATA.read_text())["cli"]
STABILIZATION_ROWS = CLI_ROWS[len(CLI_ROWS) - len(stabilization_argvs()):]


def test_cli_sweep_is_byte_identical():
    expected = CLI_ROWS[:len(CLI_ROWS) - len(STABILIZATION_ROWS)]
    assert len(expected) >= 300
    for case in expected:
        got = _run(case["argv"])
        assert got == case, f"first argv that differs: {case['argv']}"


def test_every_stabilization_argv_is_in_the_cli_sweep():
    assert [case["argv"] for case in STABILIZATION_ROWS] == stabilization_argvs()


@pytest.mark.parametrize("case", STABILIZATION_ROWS,
                         ids=[" ".join(case["argv"]) for case in STABILIZATION_ROWS])
def test_stabilization_table(case):
    assert _run(case["argv"]) == case


def test_every_pinned_splitting_passes_the_independent_oracle():
    # Each decompose and suspension argv pinned above with exit code 0, answered
    # now, text or --json, against the paper's formulas as bench/oracles.py writes
    # them with no gauge4 code (the byte-identical sweep ties the answer to the pin).
    # The argv is read as the oracle reads it: pi1 by its own reader, the top
    # cell spin unless a flag says otherwise, t 0 and d symbolic when not given.
    # The splitting the answer is written from stores its suspension as a Wedge,
    # a bare base (one block) too.
    import oracles  # bench/, put on sys.path by conftest; main() runs without it

    rows = [row for row in CLI_ROWS
            if row["argv"][0] in ("decompose", "suspension") and row["code"] == 0]
    for row in rows:
        argv = row["argv"]
        got = _run(argv)
        out = got["out"]
        flags = [arg for arg in argv[1:] if arg != "--json"]
        flags = dict(zip(flags[::2], flags[1::2]))
        m, factors = oracles.read_pi1_text(flags["--pi1"])
        spin = flags.get("--sigma-f", "trivial") == "trivial" and flags.get("--spin") != "false"
        spec = oracles.Spec(m, tuple(p**r for p, r in factors), int(flags["--b2"]), spin)
        t, d = int(flags.get("--t", 0)), flags.get("--d", "symbolic")
        d = None if d == "symbolic" else int(d)
        assert got["code"] == 0 and out.endswith("\n") and out.count("\n") == 1, argv
        args = parse_argv(argv)
        assert type(decompose(_spec_from_args(args), args.t, d=args.d).suspension) is Wedge, argv
        if "--json" in argv:
            oracles.check_decomposition_json(json.loads(out), spec,
                                             t if argv[0] == "decompose" else None, d)
        elif argv[0] == "decompose":
            oracles.check_decomposition_text(out[:-1], spec, t, d)
        else:
            oracles.check_suspension_text(out[:-1], spec, d)
    assert len(rows) == 250

def test_verdict_sweep_is_identical():
    expected = json.loads(DATA.read_text())["verdicts"]
    assert {case["query"]["fn"] for case in expected} == {"classify_base", "classify"}
    for case in expected:
        assert _verdict(case["query"]) == case["repr"], f"first query that differs: {case['query']}"


def test_gauge_render_sweep_is_byte_identical():
    expected = json.loads(DATA.read_text())["render"]
    assert {case["gauge"]["stabilization"] for case in expected} == {0, 2, SYMBOLIC}
    for case in expected:
        got = _gauge(case["gauge"])
        assert got == case["out"], f"first gauge that differs: {case['gauge']}"


def main() -> None:
    data = {
        "cli": [_run(argv) for argv in
                sweep_argvs() + sweep_homology_snf_argvs() + stabilization_argvs()],
        "render": [{"gauge": g, "out": _gauge(g)} for g in sweep_gauges()],
        "verdicts": [{"query": q, "repr": _verdict(q)} for q in sweep_verdict_queries()],
    }
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {len(data['cli'])} queries, {len(data['render'])} renderings and "
          f"{len(data['verdicts'])} verdicts to {DATA}", file=sys.stderr)


if __name__ == "__main__":
    main()
