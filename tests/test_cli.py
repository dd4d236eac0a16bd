"""Byte-level goldens, JSON round-trips, exit codes, determinism."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gauge4
from conftest import expand, random_spec
from gauge4 import (
    Decomposition,
    GaugeExpr,
    LoopFactor,
    Moore,
    SYMBOLIC,
    Pi1Kind,
    Sphere,
    SuspCP2,
    decompose,
    manifold,
    render_decomposition,
    wedge,
)
from gauge4.arith import MAX_COPIES
from gauge4.cli import build_parser, run
from gauge4.manifold import render_pi1

GOLDEN = Path(__file__).parent / "data" / "golden_sweep.json"
STABILIZATION_TABLE = Path(__file__).parent / "data" / "stabilization_table.json"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def spawn(*argv):
    """``python -m gauge4 ...`` in a fresh process that imports this gauge4."""
    src = str(Path(gauge4.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-m", "gauge4", *argv], capture_output=True, text=True, env=env)


def test_decompose_golden(capsys):
    code, out, err = invoke(
        capsys,
        "decompose", "--pi1", "Z/3", "--b2", "2", "--sigma-f", "nontrivial", "--t", "4",
    )
    assert (code, err) == (0, "")
    assert out == (
        "SM = SCP^2 v P^4(3) v S^3 v P^3(3); "
        "G_4(M) = G_4(CP^2) x O^3G{3} x O^2G x O^2G{3}\n"
    )


def test_snf_golden(capsys):
    code, out, err = invoke(capsys, "snf", "--matrix", "[[1,0],[0,1]]")
    assert (code, out, err) == (0, "1 1\n", "")
    code, out, _ = invoke(capsys, "snf", "--matrix", "[[2,4],[6,8]]")
    assert (code, out) == (0, "2 4\n")
    code, out, _ = invoke(capsys, "snf", "--matrix", "[[0,0],[0,0]]")
    assert (code, out) == (0, "\n")


def test_snf_json(capsys):
    code, out, _ = invoke(capsys, "snf", "--matrix", "[[2,4],[6,8]]", "--json")
    assert code == 0
    assert json.loads(out) == {"invariant_factors": [2, 4], "rank": 2}


def test_suspension_golden(capsys):
    code, out, _ = invoke(capsys, "suspension", "--pi1", "Z*Z", "--b2", "1")
    assert (code, out) == (0, "SM = S^5 v S^4 v S^4 v S^3 v S^2 v S^2\n")


def test_homology_golden(capsys):
    code, out, _ = invoke(capsys, "homology", "--pi1", "Z*Z/9", "--b2", "2")
    assert code == 0
    assert out == (
        "H_0 = Z\nH_1 = Z + Z/9\nH_2 = Z^2 + Z/9\nH_3 = Z\nH_4 = Z\nH_5 = 0\n"
    )
    code, sus, _ = invoke(
        capsys, "homology", "--pi1", "Z*Z/9", "--b2", "2", "--suspension"
    )
    assert code == 0
    assert sus == (
        "H_0 = Z\nH_1 = 0\nH_2 = Z + Z/9\nH_3 = Z^2 + Z/9\nH_4 = Z\nH_5 = Z\n"
    )


def test_classify_golden(capsys):
    code, out, _ = invoke(
        capsys,
        "classify", "--group", "SU(2)", "--spin", "true",
        "--pi1", "Z", "--b2", "1", "--t", "2", "--s", "4", "--primes", "2,3,5",
    )
    assert code == 0
    assert out == (
        "rule: k=12, integral\n"
        "integral: no\n"
        "p=2: unknown\n"
        "p=3: yes\n"
        "p=5: yes\n"
        "stabilized: no\n"
    )


def test_classify_json(capsys):
    code, out, _ = invoke(
        capsys,
        "classify", "--group", "Sp(3)", "--t", "1", "--s", "2", "--primes", "5", "--json",
    )
    assert code == 0
    assert json.loads(out) == {
        "verdict": {
            "integral": "unknown",
            "local": {"5": "unknown"},
            "rule": None,
            "stabilized": False,
        }
    }


def test_parse_golden(capsys):
    code, out, _ = invoke(capsys, "parse", "--pi1", " Z/25 * Z ", "--b2", "3")
    assert (code, out) == (0, "pi1 = Z*Z/25; b2 = 3; sigma-f = trivial\n")
    code, out, _ = invoke(capsys, "parse", "--pi1", "Z/25*Z", "--b2", "3", "--json")
    assert json.loads(out) == {
        "pi1": "Z*Z/25",
        "free_rank": 1,
        "cyclic_factors": [[5, 2]],
        "b2": 3,
        "sigma_f_trivial": True,
    }


# --------------------------------------------------------------------------
# JSON round-trip: rebuild the decomposition and re-render


def rebuild_atom(obj):
    if obj["kind"] == "sphere":
        return Sphere(obj["dim"])
    if obj["kind"] == "moore":
        return Moore(obj["dim"], obj["modulus"])
    assert obj["kind"] == "susp_cp2"
    return SuspCP2()


@pytest.mark.parametrize(
    "argv",
    [
        ["--pi1", "Z/3", "--b2", "2", "--sigma-f", "nontrivial", "--t", "4"],
        ["--pi1", "Z*Z/3", "--b2", "1", "--t", "7"],
        ["--pi1", "Z*Z/3", "--b2", "1", "--t", "7", "--d", "2"],
        ["--pi1", "Z*Z/9*Z/25", "--b2", "0", "--t", "-3"],
        ["--pi1", "1", "--b2", "0", "--t", "0"],
    ],
)
def test_decompose_json_round_trip(capsys, argv):
    code, text, _ = invoke(capsys, "decompose", *argv)
    assert code == 0
    code, blob, _ = invoke(capsys, "decompose", *argv, "--json")
    assert code == 0
    data = json.loads(blob)
    atoms = [rebuild_atom(o) for o in data["suspension"]]
    g = data["gauge"]
    gauge = GaugeExpr(
        g["base"],
        g["t"],
        tuple((LoopFactor(f["loop_order"], f["modulus"]), 1) for f in g["factors"]),
        g["stabilization"],
    )
    case = Pi1Kind.TRIVIAL if data["case"] == "simply_connected" else Pi1Kind(data["case"])
    dec = Decomposition(wedge(atoms), g["t"], g["stabilization"], case)
    assert expand(dec.blocks) == atoms
    assert dec.gauge == gauge
    assert render_decomposition(dec) + "\n" == text


def _every_copy(blocks):
    """The items of (item, count) blocks one per copy, capped as a written answer is."""
    total = sum(count for _, count in blocks)
    if total > MAX_COPIES:
        raise ValueError(f"the answer writes out {total} copies, more than the limit of 10**6")
    return expand(blocks)


def _summand_object(atom):
    if isinstance(atom, Sphere):
        return {"kind": "sphere", "dim": atom.dim, "modulus": None}
    if isinstance(atom, Moore):
        return {"kind": "moore", "dim": atom.dim, "modulus": atom.modulus}
    return {"kind": "susp_cp2", "dim": 5, "modulus": None}


def _dumped_splitting(command, dec):
    """--json of a splitting as json.dumps writes it, one list entry per copy."""
    case = "simply_connected" if dec.case_used is Pi1Kind.TRIVIAL else dec.case_used.value
    doc = {"case": case, "suspension": _every_copy([(_summand_object(a), n) for a, n in dec.blocks])}
    if command == "suspension":
        doc["stabilization"] = dec.stabilization
    else:
        factors = _every_copy([({"loop_order": f.loop_order, "modulus": f.modulus}, n)
                               for f, n in dec.factors])
        doc["gauge"] = {"base": dec.base, "t": dec.t, "factors": factors,
                        "stabilization": dec.stabilization}
    return json.dumps(doc, sort_keys=True)


def _splitting_argvs():
    """A seeded sweep of decompose and suspension --json queries, then
    MAX_COPIES and MAX_COPIES + 1 summands (1 + b2 for pi1 = 1, 5 + b2 + 2d
    for Z*Z/3).  Only the first of these is written out: dumping its 10**6
    objects for the reference takes about a second."""
    rng = random.Random(16)
    for i in range(320):
        spec = random_spec(rng, max_free=2, max_cyclic=2)
        flag = "trivial" if spec.sigma_f_trivial else "nontrivial"
        argv = ["--pi1", render_pi1(spec.pi1), "--b2", str(spec.b2), "--sigma-f", flag,
                "--d", rng.choice(["symbolic", "0", "1", "3"])]
        yield (["decompose", *argv, "--t", str(rng.randint(-9, 9))] if i % 2 else
               ["suspension", *argv])
    yield ["suspension", "--pi1", "1", "--b2", str(MAX_COPIES - 1)]
    yield ["suspension", "--pi1", "Z*Z/3", "--b2", str(MAX_COPIES - 6), "--d", "1"]
    yield ["decompose", "--pi1", "1", "--b2", str(MAX_COPIES)]


def test_json_splitting_matches_dumping_every_copy(capsys):
    commands, cases, kinds = build_parser()[1], set(), set()
    for argv in _splitting_argvs():
        args = commands[argv[0]].parse_args(argv[1:])
        spec = manifold(args.pi1, args.b2, sigma_f_trivial=args.sigma_f != "nontrivial")
        dec = decompose(spec, getattr(args, "t", 0), d=args.d)
        try:
            want = (0, _dumped_splitting(argv[0], dec) + "\n", "")
        except ValueError as exc:
            want = (2, "", f"error: {exc}\n")
        assert invoke(capsys, *argv, "--json") == want, argv
        cases.add((argv[0], want[0]))
        kinds.add((dec.case_used, spec.sigma_f_trivial, dec.stabilization == SYMBOLIC))
    assert cases == {(c, code) for c in ("decompose", "suspension") for code in (0, 2)}
    assert {kind for kind, _, _ in kinds} == set(Pi1Kind)
    assert {flag for _, flag, _ in kinds} == {True, False}
    assert {(kind, symbolic) for kind, _, symbolic in kinds if kind is Pi1Kind.MIXED} == {
        (Pi1Kind.MIXED, True), (Pi1Kind.MIXED, False)}


def test_output_is_deterministic(capsys):
    argv = ["decompose", "--pi1", "Z*Z/27", "--b2", "2", "--t", "5", "--json"]
    first = invoke(capsys, *argv)
    second = invoke(capsys, *argv)
    assert first == second


# --------------------------------------------------------------------------
# exits


@pytest.mark.parametrize(
    "argv,code,fragment",
    [
        (["decompose", "--pi1", "Z/4", "--b2", "1"], 2, "even torsion prime"),
        (["decompose", "--pi1", "Z/15", "--b2", "1"], 2, "not a prime power"),
        (["decompose", "--sigma-f", "nontrivial"], 2, "nontrivial sigma-f with b2 = 0"),
        (["decompose", "--pi1", "bogus"], 2, "bad fundamental-group atom"),
        (["decompose", "--b2", "-1"], 2, "b2 must be >= 0"),
        (["decompose", "--sigma-f", "trivial", "--spin", "false"], 1, "conflicting"),
        (["decompose", "--b2", "x"], 1, "invalid int value"),
        (["decompose", "--d", "1.5"], 1, "expected an integer or 'symbolic'"),
        (["decompose", "--unknown-flag"], 1, "unrecognized arguments"),
        (["classify", "--group", "SU(2)", "--t", "1"], 1, "--s"),
        (["classify", "--group", "E8", "--t", "1", "--s", "1"], 2, "bad group name"),
        (["classify", "--group", "SU(2)", "--t", "1", "--s", "1", "--primes", "6"], 2, "not a prime"),
        (["snf", "--matrix", "[[1,2"], 2, "bad matrix syntax"),
        (["snf", "--matrix", "[[1],[2,3]]"], 2, "ragged"),
        (["nonsense"], 1, "invalid choice"),
        (["snf", "--matrix", "[" * 5000 + "]" * 5000], 2, "bad matrix syntax"),
        (["parse", "--pi1", f"Z/{2**64 + 1}"], 2, "larger than 2**64"),
        (["classify", "--group", "SU(2)", "--t", "1", "--s", "2", "--primes", str(2**64 + 13)],
         2, "larger than 2**64"),
        (["snf", "--matrix", "[[],[1]]"], 2, "ragged"),
        (["snf", "--matrix", "[[1,2],[]]"], 2, "ragged"),
        # the spec is checked before the group: an invalid spec and group
        # give the spec's reason
        (["classify", "--pi1", "Z/4", "--b2", "1", "--group", "E8", "--t", "1", "--s", "1"],
         2, "even torsion prime"),
    ]
    + [
        # every spec-taking subcommand rejects each reason a spec can carry;
        # r < 1 cannot come from the grammar, where Z/1 is no prime power
        ([command, *spec, *rest], 2, reason)
        for command, rest in [
            ("decompose", []),
            ("suspension", ["--d", "2"]),
            ("homology", ["--suspension"]),
            ("classify", ["--group", "SU(2)", "--t", "1", "--s", "2"]),
            ("parse", ["--json"]),
        ]
        for spec, reason in [
            (["--pi1", "Z*Z/2", "--b2", "1"], "even torsion prime"),
            (["--pi1", "Z/3", "--spin", "false"], "nontrivial sigma-f with b2 = 0"),
            (["--pi1", "Z/1", "--b2", "1"], "modulus 1 is not a prime power"),
        ]
    ]
    + [
        # a negative stabilization count is rejected whatever pi1 is, not
        # only for a mixed free product
        ([command, "--pi1", pi1, "--b2", "1", "--d", "-2"], 2,
         "stabilization count must be >= 0, got -2")
        for command in ("decompose", "suspension")
        for pi1 in ("1", "Z", "Z/3")
    ],
)
def test_error_exits(capsys, argv, code, fragment):
    got, out, err = invoke(capsys, *argv)
    assert got == code
    assert out == ""
    assert err.startswith("error: ")
    assert fragment in err
    assert len(err.strip().splitlines()) == 1


# --------------------------------------------------------------------------
# the stabilization count: every --d spelling on every pi1 shape, mixed
# included, pinned byte for byte.  Rewrite the table only for a deliberate
# output change:
#
#     PYTHONPATH=src python tests/test_cli.py

STABILIZATION_PI1 = ("1", "Z", "Z/3", "Z*Z/3", "Z/3*Z/5")
STABILIZATION_D = (None, "symbolic", "-2", "0", "3", "x", "1.5", "-0")


def stabilization_argvs() -> list[list[str]]:
    """decompose and suspension x pi1 x --d (None: omitted) x text and --json."""
    return [
        [command, "--pi1", pi1, "--b2", "1", *([] if d is None else ["--d", d]), *fmt]
        for command in ("decompose", "suspension")
        for pi1 in STABILIZATION_PI1
        for d in STABILIZATION_D
        for fmt in ([], ["--json"])
    ]


#: (argv, exit code, stdout, stderr) rows
STABILIZATION_ROWS = json.loads(STABILIZATION_TABLE.read_text())


def test_stabilization_table_is_the_whole_probe():
    assert [row[0] for row in STABILIZATION_ROWS] == stabilization_argvs()


@pytest.mark.parametrize("argv,code,out,err", STABILIZATION_ROWS,
                         ids=[" ".join(row[0]) for row in STABILIZATION_ROWS])
def test_stabilization_table(capsys, argv, code, out, err):
    assert invoke(capsys, *argv) == (code, out, err)


def test_symbolic_d_has_one_spelling_from_the_parser_on():
    _, commands = build_parser()
    for command in ("decompose", "suspension"):
        assert commands[command].parse_args([]).d is SYMBOLIC
        assert commands[command].parse_args(["--d", "symbolic"]).d is SYMBOLIC
        assert commands[command].parse_args(["--d", "-0"]).d == 0


def test_a_repeated_reason_is_printed_once(capsys):
    assert invoke(capsys, "parse", "--pi1", "Z/2*Z/4*Z/8") == (2, "", "error: even torsion prime\n")


def test_module_entry_point():
    proc = spawn("snf", "--matrix", "[[1,0],[0,1]]")
    assert proc.returncode == 0
    assert proc.stdout == "1 1\n"


def test_61_bit_modulus_parses_fast(capsys, hang_guard):
    p = 2**61 - 1
    start = time.perf_counter()
    code, out, err = invoke(capsys, "parse", "--pi1", f"Z/{p}")
    assert time.perf_counter() - start < 0.05
    assert (code, out, err) == (0, f"pi1 = Z/{p}; b2 = 0; sigma-f = trivial\n", "")


def test_one_parser_serves_many_runs(capsys):
    # run() reuses one parser per process: after a usage error, a success
    # and --json must print what a fresh process prints.
    calls = [
        ["decompose", "--b2", "x"],
        ["classify", "--group", "SU(2)", "--t", "1"],
        ["classify", "--group", "SU(2)", "--t", "1", "--s", "4", "--primes", "3,5"],
        ["decompose", "--pi1", "Z*Z/3", "--b2", "1", "--t", "7"],
        ["decompose", "--pi1", "Z*Z/3", "--b2", "1", "--t", "7", "--json"],
    ]
    for argv in calls:
        got = invoke(capsys, *argv)
        proc = spawn(*argv)
        assert got == (proc.returncode, proc.stdout, proc.stderr)


def test_more_copies_than_the_cap_exit_2_with_one_line(capsys, hang_guard):
    calls = [
        ("decompose", "--pi1", "1", "--b2", "1000000000"),
        ("decompose", "--pi1", "Z*Z/3", "--b2", "1", "--d", "1000000000"),
        ("suspension", "--pi1", "1", "--b2", "1000000000", "--json"),
        ("decompose", "--pi1", "1", "--b2", "1000000000", "--json"),
        ("decompose", "--pi1", "Z*Z/3", "--b2", "1", "--d", "1000000000", "--json"),
    ]
    for argv in calls:
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert "limit of 10**6" in err


def test_symbolic_b2_of_a_billion_is_one_block(capsys, hang_guard):
    start = time.perf_counter()
    code, out, err = invoke(capsys, "suspension", "--pi1", "Z*Z/3", "--b2", "1000000000")
    assert time.perf_counter() - start < 0.05
    assert (code, err) == (0, "")
    assert out == (
        "S(M #_d(S^2xS^2)) = S^5 v S^4 v P^4(3) v (S^3)^{1000000000+2d} v P^3(3) v S^2\n"
    )
    line = render_decomposition(decompose(manifold("Z*Z/3", 10**9)))
    assert line.endswith("x (O^2G)^{1000000000+2d} x O^2G{3} x O^1G")


# --------------------------------------------------------------------------
# dispatch: a query whose first word names a subcommand is parsed once, by
# that subcommand's parser; the top-level parser serves the rest


def test_subcommand_parser_gives_the_top_level_namespace():
    parser, commands = build_parser()
    for query in json.loads(GOLDEN.read_text())["cli"]:
        argv = query["argv"]
        top = vars(parser.parse_args(argv))
        assert top.pop("command") == argv[0]
        assert vars(commands[argv[0]].parse_args(argv[1:])) == top


CHOICES = "(choose from 'decompose', 'suspension', 'homology', 'classify', 'snf', 'parse')"
TOP_USAGE = "usage: gauge4 [-h] {decompose,suspension,homology,classify,snf,parse} ..."


# Exit code, stdout and stderr of argv at the edges of the dispatch, as the
# top-level parser alone gave them (argparse wording of CPython 3.11).
@pytest.mark.parametrize(
    "argv,code,out,err",
    [
        ([], 1, "", "error: the following arguments are required: command\n"),
        (["nonsense"], 1, "", f"error: argument command: invalid choice: 'nonsense' {CHOICES}\n"),
        (["decomp"], 1, "", f"error: argument command: invalid choice: 'decomp' {CHOICES}\n"),
        (["Decompose"], 1, "", f"error: argument command: invalid choice: 'Decompose' {CHOICES}\n"),
        (["", "decompose"], 1, "", f"error: argument command: invalid choice: '' {CHOICES}\n"),
        (["--", "decompose"], 1, "", f"error: argument command: invalid choice: '--' {CHOICES}\n"),
        (["-x", "decompose"], 1, "", "error: unrecognized arguments: -x\n"),
        (["--t=4", "--pi1=Z*Z/3"], 1, "", "error: the following arguments are required: command\n"),
        (["decompose", "--pi", "Z"], 0,
         "SM = S^5 v S^4 v S^2; G_0(M) = G_0(S^4) x O^3G x O^1G\n", ""),
        (["decompose", "--t=4", "--pi1=Z*Z/3"], 0,
         "S(M #_d(S^2xS^2)) = S^5 v S^4 v P^4(3) v (S^3)^{2d} v P^3(3) v S^2; "
         "G_4(M) x (O^2G)^{2d} ~ G_4(S^4) x O^3G x O^3G{3} x (O^2G)^{2d} x O^2G{3} x O^1G\n", ""),
        (["decompose", "--", "--pi1", "1"], 1, "", "error: unrecognized arguments: -- --pi1 1\n"),
        (["decompose", "extra"], 1, "", "error: unrecognized arguments: extra\n"),
        (["decompose", "decompose"], 1, "", "error: unrecognized arguments: decompose\n"),
        (["decompose", "--b2", "1", "--b2", "2"], 0,
         "SM = S^5 v S^3 v S^3; G_0(M) = G_0(S^4) x O^2G x O^2G\n", ""),
        (["decompose", "--b2"], 1, "", "error: argument --b2: expected one argument\n"),
        (["classify", "--pr", "3", "--group", "SU(2)", "--t", "1", "--s", "2"], 0,
         "rule: k=12, integral\nintegral: no\np=3: no\nstabilized: no\n", ""),
        (["classify", "--group", "SU(2)", "--t", "1"], 1, "",
         "error: the following arguments are required: --s\n"),
        (["snf"], 1, "", "error: the following arguments are required: --matrix\n"),
        (["snf", "--matrix=[[2]]", "--json"], 0, '{"invariant_factors": [2], "rank": 1}\n', ""),
        (["suspension", "--d", "symb"], 1, "",
         "error: argument --d: expected an integer or 'symbolic', got 'symb'\n"),
        (["parse", "--spin", "maybe"], 1, "",
         "error: argument --spin: invalid choice: 'maybe' (choose from 'true', 'false')\n"),
    ],
)
def test_dispatch_edges_print_what_the_top_level_parser_printed(capsys, argv, code, out, err):
    assert invoke(capsys, *argv) == (code, out, err)


@pytest.mark.parametrize(
    "argv,usage",
    [
        (["-h"], TOP_USAGE),
        (["--help"], TOP_USAGE),
        (["-h", "decompose"], TOP_USAGE),
        (["decompose", "-h"], "usage: gauge4 decompose [-h] [--pi1 PI1] [--b2 B2]"),
        (["decompose", "--he"], "usage: gauge4 decompose [-h] [--pi1 PI1] [--b2 B2]"),
        (["classify", "--help"], "usage: gauge4 classify [-h] [--pi1 PI1] [--b2 B2]"),
    ],
)
def test_help_exits_0_with_the_usage_of_the_parser_named(capsys, argv, usage):
    with pytest.raises(SystemExit) as exit_:
        run(argv)
    captured = capsys.readouterr()
    assert (exit_.value.code, captured.out.splitlines()[0], captured.err) == (0, usage, "")


def write_stabilization_table() -> None:
    rows = []
    for argv in stabilization_argvs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        rows.append([argv, code, out.getvalue(), err.getvalue()])
    STABILIZATION_TABLE.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"wrote {len(rows)} rows to {STABILIZATION_TABLE}", file=sys.stderr)


if __name__ == "__main__":
    write_stabilization_table()
