"""Byte-level goldens, JSON round-trips, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gauge4
from gauge4 import (
    Decomposition,
    GaugeExpr,
    LoopFactor,
    Moore,
    Pi1Kind,
    Sphere,
    SuspCP2,
    decompose,
    manifold,
    render_decomposition,
    wedge,
)
from gauge4.cli import run


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
    assert dec.summands == atoms
    assert dec.gauge == gauge
    assert render_decomposition(dec) + "\n" == text


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
    ],
)
def test_error_exits(capsys, argv, code, fragment):
    got, out, err = invoke(capsys, *argv)
    assert got == code
    assert out == ""
    assert err.startswith("error: ")
    assert fragment in err
    assert len(err.strip().splitlines()) == 1


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
