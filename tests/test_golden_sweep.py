"""A seeded sweep of CLI queries and gauge renderings, pinned byte for byte.

``tests/data/golden_sweep.json`` holds, for each query, the argv passed to
``cli.run`` with its exit code, stdout and stderr, and for each gauge
expression the string ``render`` gives.  The sweep covers decompose,
suspension, classify and parse in text and ``--json``; ``--d`` omitted,
``symbolic`` and 0-3; both top-cell flags; and moduli out of order and
repeated.  Rewrite the file only for a deliberate output change:

    PYTHONPATH=src python tests/test_golden_sweep.py
"""

import contextlib
import io
import json
import pathlib
import random
import sys

from gauge4 import SYMBOLIC, GaugeExpr, LoopFactor, render
from gauge4.cli import run

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


def sweep_gauges(n: int = 60) -> list[dict]:
    """Seeded gauge expressions at stabilization 0, 2 and SYMBOLIC."""
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


def _gauge(spec: dict) -> GaugeExpr:
    factors = tuple((LoopFactor(k, q), 1) for k, q in spec["factors"])
    return GaugeExpr(spec["base"], spec["t"], factors, spec["stabilization"])


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return {"argv": argv, "code": code, "out": out.getvalue(), "err": err.getvalue()}


def test_cli_sweep_is_byte_identical():
    expected = json.loads(DATA.read_text())["cli"]
    assert len(expected) >= 300
    for case in expected:
        got = _run(case["argv"])
        assert got == case, f"first argv that differs: {case['argv']}"


def test_gauge_render_sweep_is_byte_identical():
    expected = json.loads(DATA.read_text())["render"]
    assert {case["gauge"]["stabilization"] for case in expected} == {0, 2, SYMBOLIC}
    for case in expected:
        got = render(_gauge(case["gauge"]))
        assert got == case["out"], f"first gauge that differs: {case['gauge']}"


def main() -> None:
    data = {
        "cli": [_run(argv) for argv in sweep_argvs()],
        "render": [{"gauge": g, "out": render(_gauge(g))} for g in sweep_gauges()],
    }
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {len(data['cli'])} queries and {len(data['render'])} renderings to {DATA}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
