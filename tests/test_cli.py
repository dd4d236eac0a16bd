"""Byte-level goldens, JSON round-trips, exit codes, determinism."""

import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

import gauge4
import argparse_cli
from conftest import expand, line_events, product_every_copy, random_spec
import oracles  # bench/, put on sys.path by conftest, also when this file runs as a script
from gauge4 import (
    Decomposition,
    IntMatrix,
    Moore,
    SYMBOLIC,
    Pi1Kind,
    Sphere,
    SuspCP2,
    Wedge,
    decompose,
    manifold,
    mixed_decomposition,
    parse_matrix,
    render,
    render_decomposition,
)
from gauge4.arith import MAX_COPIES
from gauge4.cli import COMMANDS, UsageError, _splitting_json, parse_argv, run
from gauge4.decomposer import splitting_parts
from gauge4.manifold import PI1_KINDS, render_pi1
from gauge4.terms import loop_pair

GOLDEN = Path(__file__).parent / "data" / "golden_sweep.json"
#: What ``--help`` prints at the top level and for each subcommand, in HELP_COMMANDS
#: order; rewrite it only for a deliberate change of the help text:
#:     PYTHONPATH=src python tests/test_cli.py
HELP = Path(__file__).parent / "data" / "cli_help.txt"
#: The top level ("") and each subcommand, in the order they list.
HELP_COMMANDS = ("", "decompose", "suspension", "homology", "classify", "snf", "parse")


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def module_call(argv, env):
    """The command and environment of ``python -m gauge4 ...`` in a fresh
    process that imports this gauge4, with env added to the environment."""
    src = str(Path(gauge4.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return [sys.executable, "-m", "gauge4", *argv], {**os.environ, "PYTHONPATH": path, **env}


def spawn(*argv, **env):
    """``python -m gauge4 ...`` run to its end, as text (see module_call)."""
    command, env = module_call(argv, env)
    return subprocess.run(command, capture_output=True, text=True, env=env)


# (argv, stdout) of a few queries of each subcommand, pinned byte for byte
PINNED = [
    (["decompose", "--pi1", "Z/3", "--b2", "2", "--sigma-f", "nontrivial", "--t", "4"],
     "SM = SCP^2 v P^4(3) v S^3 v P^3(3); G_4(M) = G_4(CP^2) x O^3G{3} x O^2G x O^2G{3}\n"),
    (["snf", "--matrix", "[[1,0],[0,1]]"], "1 1\n"),
    (["snf", "--matrix", "[[2,4],[6,8]]"], "2 4\n"),
    (["snf", "--matrix", "[[0,0],[0,0]]"], "\n"),
    (["snf", "--matrix", "[[2,4],[6,8]]", "--json"], '{"invariant_factors": [2, 4], "rank": 2}\n'),
    (["suspension", "--pi1", "Z*Z", "--b2", "1"], "SM = S^5 v S^4 v S^4 v S^3 v S^2 v S^2\n"),
    (["homology", "--pi1", "Z*Z/9", "--b2", "2"],
     "H_0 = Z\nH_1 = Z + Z/9\nH_2 = Z^2 + Z/9\nH_3 = Z\nH_4 = Z\nH_5 = 0\n"),
    (["homology", "--pi1", "Z*Z/9", "--b2", "2", "--suspension"],
     "H_0 = Z\nH_1 = 0\nH_2 = Z + Z/9\nH_3 = Z^2 + Z/9\nH_4 = Z\nH_5 = Z\n"),
    (["classify", "--group", "SU(2)", "--spin", "true", "--pi1", "Z", "--b2", "1", "--t", "2",
      "--s", "4", "--primes", "2,3,5"],
     "rule: k=12, integral\nintegral: no\np=2: unknown\np=3: yes\np=5: yes\nstabilized: no\n"),
    (["classify", "--group", "Sp(3)", "--t", "1", "--s", "2", "--primes", "5", "--json"],
     '{"verdict": {"integral": "unknown", "local": {"5": "unknown"}, "rule": null, '
     '"stabilized": false}}\n'),
    (["parse", "--pi1", " Z/25 * Z ", "--b2", "3"], "pi1 = Z*Z/25; b2 = 3; sigma-f = trivial\n"),
    (["parse", "--pi1", "Z/25*Z", "--b2", "3", "--json"],
     '{"b2": 3, "cyclic_factors": [[5, 2]], "free_rank": 1, "pi1": "Z*Z/25", '
     '"sigma_f_trivial": true}\n'),
]


@pytest.mark.parametrize("argv,out", PINNED, ids=[" ".join(argv) for argv, _ in PINNED])
def test_pinned_answers(capsys, argv, out):
    assert invoke(capsys, *argv) == (0, out, "")


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
    dec = Decomposition(Wedge([(atom, 1) for atom in atoms]), g["t"], g["stabilization"],
                        data["case"])
    assert expand(dec.suspension.blocks) == atoms
    # one loop factor per summand after the base, in order, from loop_pair
    assert g["base"] == dec.base
    assert [(f["loop_order"], f["modulus"]) for f in g["factors"]] == [
        loop_pair(atom) for atom in atoms[1:]]
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
    suspension = _every_copy([(_summand_object(a), n) for a, n in dec.suspension.blocks])
    doc = {"case": dec.case_used, "suspension": suspension}
    if command == "suspension":
        doc["stabilization"] = dec.stabilization
    else:
        factors = _every_copy([(dict(zip(("loop_order", "modulus"), loop_pair(atom))), n)
                               for atom, n in dec.suspension.blocks[1:]])
        doc["gauge"] = {"base": dec.base, "t": dec.t, "factors": factors,
                        "stabilization": dec.stabilization}
    return json.dumps(doc, sort_keys=True)


#: The --json edge rows: primes whose keys sort as strings, a verdict with no rule, a
#: rule with an odd-prime bound, a stabilized verdict, a suspended homology, an empty
#: matrix and a pi1 with no cyclic factor.
JSON_EDGE_ARGVS = [
    ["classify", "--group", "SU(3)", "--t", "1", "--s", "2", "--primes", "3,11"],
    ["classify", "--group", "Sp(3)", "--pi1", "Z/3", "--b2", "1", "--t", "1", "--s", "2"],
    ["classify", "--group", "SU(4)", "--pi1", "Z/3", "--t", "1", "--s", "2", "--primes", "5"],
    ["classify", "--group", "SU(2)", "--pi1", "Z/3*Z", "--t", "1", "--s", "2", "--primes", "2,3"],
    ["homology", "--pi1", "Z*Z/9", "--b2", "2", "--suspension"],
    ["snf", "--matrix", "[]"],
    ["parse", "--pi1", "1"],
]


def _json_argvs():
    """A seeded sweep of --json queries of all six subcommands, decompose and
    suspension first, then the edge rows, then MAX_COPIES and MAX_COPIES + 1
    summands (1 + b2 for pi1 = 1, 5 + b2 + 2d for Z*Z/3).  Only the first of
    these is written out: dumping its 10**6 objects for the reference takes
    about a second."""
    rng = random.Random(16)
    for i in range(320):
        spec = random_spec(rng, max_free=2, max_cyclic=2)
        flag = "trivial" if spec.sigma_f_trivial else "nontrivial"
        argv = ["--pi1", render_pi1(spec.pi1), "--b2", str(spec.b2), "--sigma-f", flag,
                "--d", rng.choice(["symbolic", "0", "1", "3"])]
        yield (["decompose", *argv, "--t", str(rng.randint(-9, 9))] if i % 2 else
               ["suspension", *argv])
    rng = random.Random(29)
    for i in range(160):
        spec = random_spec(rng, max_free=2, max_cyclic=2)
        flag = "trivial" if spec.sigma_f_trivial else "nontrivial"
        argv = ["--pi1", render_pi1(spec.pi1), "--b2", str(spec.b2), "--sigma-f", flag]
        command = ("homology", "classify", "snf", "parse")[i % 4]
        if command == "homology":
            yield ["homology", *argv, *(["--suspension"] * (i % 8 == 0))]
        elif command == "classify":
            primes = rng.sample((2, 3, 5, 7, 11, 13, 17, 19, 23), rng.randint(0, 4))
            yield ["classify", *argv, "--group", rng.choice(("SU(2)", "SU(4)", "Sp(3)", "G2")),
                   "--t", str(rng.randint(-30, 30)), "--s", str(rng.randint(-30, 30)),
                   "--primes", ",".join(map(str, primes))]
        elif command == "snf":
            side = rng.randint(0, 4)
            yield ["snf", "--matrix", json.dumps(
                [[rng.randint(-9, 9) for _ in range(side)] for _ in range(side)])]
        else:
            yield ["parse", *argv]
    yield from JSON_EDGE_ARGVS
    yield ["suspension", "--pi1", "1", "--b2", str(MAX_COPIES - 1)]
    yield ["suspension", "--pi1", "Z*Z/3", "--b2", str(MAX_COPIES - 6), "--d", "1"]
    yield ["decompose", "--pi1", "1", "--b2", str(MAX_COPIES)]


def test_json_splitting_matches_dumping_every_copy(capsys):
    # A splitting's document is json.dumps of its reference with every copy written
    # out; every document of under 10**6 bytes is also json.dumps of what it loads
    # to, with its keys sorted (loading a 10**6-copy one would build 10**6 dicts).
    cases, kinds, docs = set(), set(), []
    for argv in _json_argvs():
        code, out, err = invoke(capsys, *argv, "--json")
        cases.add((argv[0], code))
        if code == 0 and len(out) < 10**6:
            docs.append(json.loads(out))
            assert out == json.dumps(docs[-1], sort_keys=True) + "\n", argv
        if argv[0] not in ("decompose", "suspension"):
            assert (code, err) == (0, ""), argv
            continue
        args = parse_argv(argv)
        spec = manifold(args.pi1, args.b2, sigma_f_trivial=args.sigma_f != "nontrivial")
        dec = decompose(spec, getattr(args, "t", 0), d=args.d)
        try:
            want = (0, _dumped_splitting(argv[0], dec) + "\n", "")
        except ValueError as exc:
            want = (2, "", f"error: {exc}\n")
        assert (code, out, err) == want, argv
        kinds.add((dec.case_used, spec.sigma_f_trivial, dec.stabilization == SYMBOLIC))
    assert cases == {(c, code) for c in ("decompose", "suspension") for code in (0, 2)} | {
        (c, 0) for c in ("homology", "classify", "snf", "parse")}
    assert {kind for kind, _, _ in kinds} == set(PI1_KINDS)
    assert {flag for _, flag, _ in kinds} == {True, False}
    assert {(kind, symbolic) for kind, _, symbolic in kinds if kind is Pi1Kind.MIXED} == {
        (Pi1Kind.MIXED, True), (Pi1Kind.MIXED, False)}
    verdicts = [doc["verdict"] for doc in docs if "verdict" in doc]
    assert ["11", "3"] in [list(v["local"]) for v in verdicts]
    assert {v["rule"] is None for v in verdicts} == {v["stabilized"] for v in verdicts} == {
        True, False}
    assert any(v["rule"] and v["rule"]["odd_prime_bound"] for v in verdicts)
    assert {"invariant_factors": [], "rank": 0} in docs
    assert [] in [doc.get("cyclic_factors") for doc in docs]


def _joined_every_copy(items, sep):
    """items, one per written copy, joined by sep and capped as an answer is."""
    if len(items) > MAX_COPIES:
        raise ValueError(f"the answer writes out {len(items)} copies, more than the limit of 10**6")
    return sep.join(items)


def _halves_every_copy(dec):
    """Both text halves of a splitting written one copy at a time; with a
    symbolic d the S^3 copies are the one (S^3)^{n+2d} piece in the place S^3
    sorts to.  The gauge half's product is conftest's product_every_copy.  Each
    half raises ValueError past the cap."""
    stab, t = dec.stabilization, dec.t
    summands = expand([(render(atom), n) for atom, n in dec.suspension.blocks])
    if stab == SYMBOLIC:
        atoms = expand(dec.suspension.blocks)
        n = atoms.count(Sphere(3))
        i = sum(getattr(atom, "dim", 5) > 3 for atom in atoms)  # SCP^2 is 5-dimensional
        summands[i : i + n] = [f"(S^3)^{{{n}+2d}}" if n else "(S^3)^{2d}"]
    if stab == 0:
        heads = ("SM = ", f"G_{t}(M) = ")
    else:
        count, power = ("d", "{2d}") if stab == SYMBOLIC else (stab, 2 * stab)
        heads = (f"S(M #_{count}(S^2xS^2)) = ", f"G_{t}(M) x (O^2G)^{power} ~ ")

    def suspension():
        return heads[0] + _joined_every_copy(summands, " v ")

    def gauge():
        return heads[1] + product_every_copy(dec)

    return suspension, gauge


def _differential_flags():
    """(spec and --d flags, t) of seeded random_spec queries with symbolic and
    concrete d; one of the latter again with b2 grown until the suspension
    writes MAX_COPIES - 1 copies, then MAX_COPIES + 1 (dumping the reference
    --json of the first takes about 3 s)."""
    rng = random.Random(17)
    for i in range(120):
        spec = random_spec(rng, max_free=2, max_cyclic=3)
        d = "symbolic" if i % 3 == 0 else str(rng.randint(0, 4))
        flag = "trivial" if spec.sigma_f_trivial else "nontrivial"
        flags, t = ["--pi1", render_pi1(spec.pi1), "--sigma-f", flag, "--d", d], rng.randint(-9, 9)
        yield [*flags, "--b2", str(spec.b2)], t
        if i == 1:  # d is concrete, so each unit of b2 is one more copy
            total = sum(n for _, n in decompose(spec, d=int(d)).suspension.blocks)
            for big in (MAX_COPIES - 1, MAX_COPIES + 1):
                yield [*flags, "--b2", str(spec.b2 + big - total)], t


def test_every_splitting_answer_matches_writing_each_copy(capsys):
    # Each answer is joined once from its parts; the reference writes one
    # entry per copy.  Text and --json, each half alone and both together, and
    # past the cap the same error line and nothing on stdout.
    seen = set()
    for flags, t in _differential_flags():
        args = parse_argv(["suspension", *flags])
        spec = manifold(args.pi1, args.b2, sigma_f_trivial=args.sigma_f != "nontrivial")
        dec = decompose(spec, t, d=args.d)
        suspension, gauge = _halves_every_copy(dec)
        for argv, halves, render_one in (
            (["suspension", *flags], (suspension,), lambda dec: "".join(splitting_parts(dec, False))),
            (["decompose", *flags, "--t", str(t)], (suspension, gauge), render_decomposition),
        ):
            for json_flag, reference in (([], lambda: "; ".join(half() for half in halves)),
                                         (["--json"], lambda: _dumped_splitting(argv[0], dec))):
                try:
                    want = (0, reference() + "\n", "")
                except ValueError as exc:
                    want = (2, "", f"error: {exc}\n")
                    seen.add(want[2])
                assert invoke(capsys, *argv, *json_flag) == want, argv
                if not json_flag and want[0] == 0:
                    assert render_one(dec) + "\n" == want[1]
                elif not json_flag:
                    with pytest.raises(ValueError) as raised:
                        render_one(dec)
                    assert f"error: {raised.value}\n" == want[2]
        seen |= {sum(n for _, n in dec.suspension.blocks),
                 (dec.case_used, dec.stabilization == SYMBOLIC)}
    assert {MAX_COPIES - 1, MAX_COPIES + 1} <= seen
    assert {(kind, False) for kind in PI1_KINDS} | {(Pi1Kind.MIXED, True)} <= seen
    assert "error: the answer writes out 1000001 copies, more than the limit of 10**6\n" in seen


def _spec_box():
    """(spec, d, the oracle's Spec of it) for every spec in a small box: free
    rank 0-2, up to two cyclic factors from Z/3, Z/5, Z/7 and Z/9, b2 0-3 with
    both top-cell flags, and d symbolic, 0, 1 or 2: 1 260 specs."""
    moduli = [c for k in range(3) for c in combinations_with_replacement((3, 5, 7, 9), k)]
    for m in range(3):
        for cyclic in moduli:
            pi1 = "*".join(["Z"] * m + [f"Z/{q}" for q in cyclic]) or "1"
            for b2 in range(4):
                for trivial in (True, False) if b2 else (True,):
                    for d in (SYMBOLIC, 0, 1, 2):
                        yield (manifold(pi1, b2, sigma_f_trivial=trivial), d,
                               oracles.Spec(m, cyclic, b2, trivial))


def _oracle_counts(blocks):
    """The oracle's expected (a, b) counts, a + b*d, as written ones: the d-free
    part of each block that has one."""
    return {atom: a for atom, (a, _) in blocks.items() if a}


def _read_splitting_json(doc):
    """The summands and loop factors of a --json splitting, counted in the
    oracle's spelling.  oracles.check_decomposition_json judges only a spec's
    own case, and bench/ changes only with the benchmark's oracle module
    (ROADMAP item 15), so the stabilized formula of a spec that is not mixed
    is read here."""
    names = {"sphere": "S^{dim}", "moore": "P^{dim}({modulus})", "susp_cp2": "SCP^2"}
    summands = Counter(names[a["kind"]].format(**a) for a in doc["suspension"])
    factors = Counter(f"O^{f['loop_order']}G" + ("" if f["modulus"] is None else
                                                  f"{{{f['modulus']}}}")
                      for f in doc["gauge"]["factors"])
    return summands, factors


def test_every_spec_in_the_box_matches_its_copies_and_the_independent_oracle():
    # One pass over the box builds decompose and the stabilized formula of every spec,
    # and checks each splitting two ways, after checking that _assemble, which builds
    # its wedge past _merge and its Decomposition past Decomposition's checks, gives
    # the blocks in _merge's normal form and a splitting that Decomposition accepts
    # and stores alike; the box holds Z/9*Z/5 and Z/9*Z/7, where 9 = 3^2 comes
    # after 5 and 7.
    # Written one copy at a time: text and --json, each half alone and both together;
    # the box puts the (X)^{2d} piece of a splitting with no S^3 block before P^3(q),
    # before S^2, and last.
    # Against the paper's formulas, as bench/oracles.py writes them with no gauge4
    # code: both text halves, --json, and the product written one factor per copy
    # from loop_pair (conftest's product_every_copy), read after the head the text
    # answer writes.  d is the oracle's own: decompose stabilizes a mixed pi1 alone,
    # the stabilized formula every pi1, so for a mixed pi1 the two are one
    # splitting, checked against the oracle once.
    specs, placed = 0, set()
    for spec, d, ospec in _spec_box():
        specs += 1
        splittings = [(False, decompose(spec, 1, d=d)), (True, mixed_decomposition(spec, 1, d=d))]
        for _, dec in splittings:
            assert Wedge(dec.suspension.blocks).blocks == dec.suspension.blocks, dec
            assert Decomposition(dec.suspension, dec.t, dec.stabilization, dec.case_used) == dec
            suspension, gauge = _halves_every_copy(dec)
            assert render_decomposition(dec) == f"{suspension()}; {gauge()}", dec
            assert "".join(splitting_parts(dec, False)) == suspension(), dec
            product = gauge().partition(" = " if dec.stabilization == 0 else " ~ ")[2]
            assert "".join(_splitting_json(dec, True)) == _dumped_splitting("decompose", dec)
            if dec.stabilization == SYMBOLIC and "(S^3)^{2d}" in suspension():
                placed.add((suspension().rpartition("(S^3)^{2d}")[2][3:6] or "last",
                            product.rpartition("(O^2G)^{2d}")[2][3:7] or "last"))
        d = None if d == SYMBOLIC else d
        if ospec.mixed:
            _, same = splittings.pop()
            assert same == splittings[0][1]
        for stabilized, dec in splittings:
            at = d if stabilized or ospec.mixed else 0
            wedge = oracles.expected_wedge(ospec, at)
            factors = oracles.expected_factors(wedge)
            suspension, _, gauge = render_decomposition(dec).partition("; ")
            assert oracles.read_suspension_half(suspension, at) == wedge, dec
            assert oracles.read_gauge_half(gauge, ospec, 1, at) == factors, dec
            relation = " = " if at == 0 else " ~ "
            product = gauge.partition(relation)[0] + relation + product_every_copy(dec)
            assert oracles.read_gauge_half(product, ospec, 1, at) == factors, dec
            doc = json.loads("".join(_splitting_json(dec, True)))
            if not stabilized:
                oracles.check_decomposition_json(doc, ospec, 1, d)
            else:
                assert doc["case"] == "mixed", dec
                assert {key: doc["gauge"][key] for key in ("base", "stabilization", "t")} == {
                    "base": "S4" if ospec.spin else "CP2",
                    "stabilization": SYMBOLIC if d is None else d, "t": 1}, dec
                assert _read_splitting_json(doc) == (_oracle_counts(wedge),
                                                     _oracle_counts(factors)), dec
    assert specs == 1260
    assert placed == {("P^3", "O^2G"), ("S^2", "O^1G"), ("last", "last")}


# --------------------------------------------------------------------------
# exits


#: snf's one line for a text that is not a bracketed list of bracketed rows; it echoes no argv.
SHAPE_LINE = "error: bad matrix syntax: expected a bracketed list of bracketed rows\n"


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
        (["snf", "--matrix", "[[1,2"], 2, SHAPE_LINE),
        (["snf", "--matrix", "[[1],[2,3]]"], 2, "error: ragged matrix rows\n"),
        (["nonsense"], 1, "invalid choice"),
        (["snf", "--matrix", "[" * 5000 + "]" * 5000], 2, SHAPE_LINE),
        # Python's 4300-digit limit on int() and str(), in an entry and in
        # an answer (the integers written out)
        (["snf", "--matrix", "[[1" + "0" * 4400 + "]]"], 2,
         "error: bad matrix syntax: an entry has more than 4300 digits\n"),
        (["snf", "--matrix", f"[[{10**4000 + 1}, 0], [0, {10**4000 + 3}]]"], 2,
         "error: an invariant factor has more than 4300 digits, too many to print\n"),
        (["snf", "--matrix", f"[[{10**4000 + 1}, 0], [0, {10**4000 + 3}]]", "--json"], 2,
         "error: an invariant factor has more than 4300 digits, too many to print\n"),
        (["parse", "--pi1", f"Z/{2**64 + 1}"], 2, "larger than 2**64"),
        (["classify", "--group", "SU(2)", "--t", "1", "--s", "2", "--primes", str(2**64 + 13)],
         2, "larger than 2**64"),
        (["snf", "--matrix", "[[],[1]]"], 2, "error: ragged matrix rows\n"),
        (["snf", "--matrix", "[[1,2],[]]"], 2, "error: ragged matrix rows\n"),
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


def test_snf_answers_up_to_the_digits_python_writes(capsys):
    # str() of an int stops at 4300 digits: the widest factor is written,
    # and one a digit wider is refused with snf's own line, as in the table
    # above for the entries.
    widest = "9" * 4300
    assert invoke(capsys, "snf", "--matrix", f"[[{widest}]]") == (0, widest + "\n", "")
    assert invoke(capsys, "snf", "--matrix", f"[[{widest}]]", "--json") == (
        0, f'{{"invariant_factors": [{widest}], "rank": 1}}\n', "")
    reason = "an invariant factor has more than 4300 digits, too many to print"
    for json_flag in ([], ["--json"]):
        assert invoke(capsys, "snf", "--matrix", f"[[{widest}, 0], [0, 7]]", *json_flag) == (
            2, "", f"error: {reason}\n")


def test_snf_names_the_digit_limit_python_runs_with(monkeypatch):
    # The limit is read where each message is written: under a limit of
    # 640 digits a 351-digit entry is read and a 701-digit factor refused,
    # a 700-digit entry is refused, and under no limit both are written.
    matrix = f"[[{10**350 + 1}, 0], [0, {10**350 + 3}]]"
    product = str((10**350 + 1) * (10**350 + 3))
    for argv, err in (
        (["snf", "--matrix", matrix],
         "error: an invariant factor has more than 640 digits, too many to print\n"),
        (["snf", "--matrix", matrix, "--json"],
         "error: an invariant factor has more than 640 digits, too many to print\n"),
        (["snf", "--matrix", f"[[{10**699}]]"],
         "error: bad matrix syntax: an entry has more than 640 digits\n"),
    ):
        proc = spawn(*argv, PYTHONINTMAXSTRDIGITS="640")
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", err)
    proc = spawn("snf", "--matrix", matrix, PYTHONINTMAXSTRDIGITS="0")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"1 {product}\n", "")
    # an interpreter without sys.get_int_max_str_digits has no limit
    limit = sys.get_int_max_str_digits()
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    sys.set_int_max_str_digits(0)
    try:
        assert run(["snf", "--matrix", f"[[{10**5000}]]"]) == 0
    finally:
        sys.set_int_max_str_digits(limit)


def test_pi1_and_group_grammars_refuse_more_digits_than_python_reads(capsys):
    # Once Python's own "Exceeds the limit (4300 digits) ..." text; now each
    # grammar's line names the limit the interpreter runs with.
    many = "9" * 4400
    assert invoke(capsys, "parse", "--pi1", f"Z/{many}") == (
        2, "", "error: cyclic factor base has more than 4300 digits\n")
    assert invoke(capsys, "classify", "--group", f"SU({many})", "--t", "1", "--s", "2") == (
        2, "", "error: group rank n has more than 4300 digits\n")
    proc = spawn("parse", "--pi1", "Z/" + "9" * 700, PYTHONINTMAXSTRDIGITS="640")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: cyclic factor base has more than 640 digits\n")


def test_integer_flags_refuse_more_digits_than_python_reads(capsys):
    # A token of decimal digits fails int() only past the digit limit, so its
    # line names the limit and echoes no digit; a malformed token keeps its line.
    many = "9" * 4400
    spec = ["--group", "SU(2)", "--t", "1"]
    for argv in (["decompose", "--b2", many], ["decompose", "--t", f" -{many} "],
                 ["suspension", "--d", f"+{many}"], ["classify", *spec, "--s", many],
                 ["classify", *spec, "--s", "2", "--primes", f"3,{many}"]):
        assert invoke(capsys, *argv) == (
            1, "", f"error: argument {argv[-2]}: an integer has more than 4300 digits\n")
    for argv, line in (
        (["decompose", "--b2", f"+-{many}"], f"invalid int value: '+-{many}'"),
        (["decompose", "--d", f"{many}.5"], f"expected an integer or 'symbolic', got '{many}.5'"),
        (["classify", *spec, "--s", "2", "--primes", f"x,{many}"],
         f"expected a comma-separated prime list, got 'x,{many}'"),
    ):
        assert invoke(capsys, *argv) == (1, "", f"error: argument {argv[-2]}: {line}\n")
    proc = spawn("decompose", "--b2", "9" * 700, PYTHONINTMAXSTRDIGITS="640")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "error: argument --b2: an integer has more than 640 digits\n")


#: The tokens each integer reader is given: digits of three scripts, an underscore,
#: each sign, and whitespace around.
TOKENS = ("7", "\u0667", "\uff17", "1_1", "+7", "-7", " 7 ", "7\n")
_SU2 = ["classify", "--group", "SU(2)", "--t", "1"]
#: reader -> (the argv around a token; one outcome per token).  An int is the value
#: read, which answers as its ASCII digits do; a pair is the exit code and the error line.
INTEGER_READERS = {
    "--pi1": (lambda tok: ["parse", "--pi1", f"Z/{tok}"], [
        7, (2, "bad fundamental-group atom: 'Z/\u0667'"),
        (2, "bad fundamental-group atom: 'Z/\uff17'"), (2, "bad fundamental-group atom: 'Z/1_1'"),
        (2, "bad fundamental-group atom: 'Z/+7'"), (2, "bad fundamental-group atom: 'Z/-7'"),
        7, 7]),
    "--group": (lambda tok: ["classify", "--group", f"SU({tok})", "--t", "1", "--s", "2"], [
        7, (2, "bad group name: 'SU(\u0667)'"), (2, "bad group name: 'SU(\uff17)'"),
        (2, "bad group name: 'SU(1_1)'"), (2, "bad group name: 'SU(+7)'"),
        (2, "bad group name: 'SU(-7)'"), (2, "bad group name: 'SU( 7 )'"),
        (2, "bad group name: 'SU(7\\n)'")]),
    "--group Sp": (lambda tok: ["classify", "--group", f"Sp({tok})", "--t", "1", "--s", "2"], [
        7, (2, "bad group name: 'Sp(\u0667)'"), (2, "bad group name: 'Sp(\uff17)'"),
        (2, "bad group name: 'Sp(1_1)'"), (2, "bad group name: 'Sp(+7)'"),
        (2, "bad group name: 'Sp(-7)'"), (2, "bad group name: 'Sp( 7 )'"),
        (2, "bad group name: 'Sp(7\\n)'")]),
    "--b2": (lambda tok: ["parse", "--b2", tok], [
        7, (1, "argument --b2: invalid int value: '\u0667'"),
        (1, "argument --b2: invalid int value: '\uff17'"),
        (1, "argument --b2: invalid int value: '1_1'"), 7, (2, "b2 must be >= 0, got -7"), 7, 7]),
    "--t": (lambda tok: ["decompose", "--t", tok], [
        7, (1, "argument --t: invalid int value: '\u0667'"),
        (1, "argument --t: invalid int value: '\uff17'"),
        (1, "argument --t: invalid int value: '1_1'"), 7, -7, 7, 7]),
    "classify --t": (lambda tok: ["classify", "--group", "SU(2)", "--t", tok, "--s", "2"], [
        7, (1, "argument --t: invalid int value: '\u0667'"),
        (1, "argument --t: invalid int value: '\uff17'"),
        (1, "argument --t: invalid int value: '1_1'"), 7, -7, 7, 7]),
    "--s": (lambda tok: [*_SU2, "--s", tok], [
        7, (1, "argument --s: invalid int value: '\u0667'"),
        (1, "argument --s: invalid int value: '\uff17'"),
        (1, "argument --s: invalid int value: '1_1'"), 7, -7, 7, 7]),
    "--d": (lambda tok: ["suspension", "--pi1", "Z*Z/3", "--d", tok], [
        7, (1, "argument --d: expected an integer or 'symbolic', got '\u0667'"),
        (1, "argument --d: expected an integer or 'symbolic', got '\uff17'"),
        (1, "argument --d: expected an integer or 'symbolic', got '1_1'"), 7,
        (2, "stabilization count must be >= 0, got -7"), 7, 7]),
    "--primes": (lambda tok: [*_SU2, "--s", "2", "--primes", tok], [
        7, (1, "argument --primes: expected a comma-separated prime list, got '\u0667'"),
        (1, "argument --primes: expected a comma-separated prime list, got '\uff17'"),
        (1, "argument --primes: expected a comma-separated prime list, got '1_1'"), 7,
        (2, "not a prime: -7"), 7, 7]),
    "--primes 2,p": (lambda tok: [*_SU2, "--s", "2", "--primes", f"2,{tok}"], [
        7, (1, "argument --primes: expected a comma-separated prime list, got '2,\u0667'"),
        (1, "argument --primes: expected a comma-separated prime list, got '2,\uff17'"),
        (1, "argument --primes: expected a comma-separated prime list, got '2,1_1'"), 7,
        (2, "not a prime: -7"), 7, 7]),
    "--matrix": (lambda tok: ["snf", "--matrix", f"[[{tok}]]"], [
        7, (2, "bad matrix entry: '\u0667'"), (2, "bad matrix entry: '\uff17'"),
        (2, "bad matrix entry: '1_1'"), 7, -7, 7, 7]),
    "--matrix 1,a": (lambda tok: ["snf", "--matrix", f"[[1, {tok}]]"], [
        7, (2, "bad matrix entry: '\u0667'"), (2, "bad matrix entry: '\uff17'"),
        (2, "bad matrix entry: '1_1'"), 7, -7, 7, 7]),
}


@pytest.mark.parametrize("reader", INTEGER_READERS)
def test_every_integer_reader_reads_ascii_digits_by_one_rule(capsys, reader):
    # ASCII digits only, in every grammar and flag: another script's digit, once read
    # as its value, and an underscore, once read by the flags, are refused with the
    # reader's malformed line.  A flag and a matrix entry take a sign, the other grammars
    # none; whitespace around a token is ignored where the reader strips it.
    build, outcomes = INTEGER_READERS[reader]
    for token, want in zip(TOKENS, outcomes, strict=True):
        if isinstance(want, int):  # the answer to the plain digits, with exit 0
            want = invoke(capsys, *build(str(want)))
            assert want[0] == 0
        else:
            want = (want[0], "", f"error: {want[1]}\n")
        assert invoke(capsys, *build(token)) == want, token


#: The pieces of the snf fuzz below: the grammar's own tokens, json's words and number
#: forms, whitespace, digits of three scripts, and a run past Python's digit limit.
_PIECES = ["[", "]", ",", "+", "-", " ", "\n", "0", "7", "12", "\u0667", "\uff17", "_", ".",
           "e", "true", "NaN", "9" * 4400]


def fuzz_matrix(rng: random.Random) -> str:
    """A seeded text for ``snf --matrix``: rows of entries, mostly integers json reads too,
    each gap padded with whitespace, at times edited by a piece; else pieces at random."""
    if rng.random() < 0.2:
        return "".join(rng.choices(_PIECES, k=rng.randint(0, 12)))

    def pad():
        return "".join(rng.choices(" \n", k=rng.choice((0, 0, 1, 2))))

    def entry():
        if rng.random() < 0.8:
            return pad() + str(rng.randint(-99, 99)) + pad()
        return "".join(rng.choices(_PIECES, k=rng.randint(1, 3)))

    cols = rng.randint(0, 4)
    rows = [f"[{','.join(entry() for _ in range(cols + (rng.random() < 0.05)))}]"
            for _ in range(rng.randint(0, 4))]
    text = f"{pad()}[{pad()}{','.join(pad() + row + pad() for row in rows)}]{pad()}"
    if rng.random() < 0.3:
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice(_PIECES) + text[at + rng.randint(0, 1):]
    return text


def _outcome(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


def test_snf_matrix_fuzz_ends_in_an_answer_or_one_error_line(capsys, hang_guard):
    # Every text ends with exit 0 or 2 and at most gauge4's own line, never a traceback
    # or json's messages; wherever json reads a list of rows of ints, the matrix is json's.
    rng = random.Random(2026)
    compared = refused = 0
    for _ in range(2000):
        text = fuzz_matrix(rng)
        code, out, err = invoke(capsys, "snf", f"--matrix={text}")  # a text may start "-"
        if code == 0:
            assert err == "" and out.endswith("\n"), text
        else:
            refused += 1
            assert (code, out) == (2, ""), text
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
            assert not any(word in err for word in (
                "Traceback", "Expecting", "line 1 column", "nan", "inf", "True")), err
        try:
            data = json.loads(text)
        except (ValueError, RecursionError):
            continue
        if type(data) is list and all(type(row) is list and all(type(v) is int for v in row)
                                      for row in data):
            compared += 1
            assert _outcome(lambda: parse_matrix(text)) == _outcome(
                lambda: IntMatrix.from_rows(data)), text
    assert compared > 600 and refused > 600


def test_snf_refuses_a_long_matrix_fast(capsys):
    # 100 KB texts, each refused with one line in under 50 ms of CPU: deep brackets, a
    # row of spaces between two digits, and 33 000 empty rows before a full one.  A full
    # collection runs before each clock starts, so a collection of what the tests before
    # this one left behind does not fall in the timed window.  Before the clock, a bound
    # on the line events in gauge4 frames, which no machine's load moves: at most 100
    # for the first two, whatever their length, and 12 per row for the third; the count
    # stops at its bound, so a reader quadratic in the rows fails at once.
    for text, err, lines in [
        ("[" * 50_000 + "]" * 50_000, SHAPE_LINE, 100),
        ("[[1" + " " * 10**5 + "2]]", f"error: bad matrix entry: {'1' + ' ' * 10**5 + '2'!r}\n",
         100),
        ("[" + "[]," * 33_000 + "[1]]", "error: ragged matrix rows\n", 12 * 33_001),
    ]:
        assert len(text) > 99_000
        assert line_events(invoke, capsys, "snf", "--matrix", text, limit=lines) <= lines
        gc.collect()
        start = time.process_time()
        assert invoke(capsys, "snf", "--matrix", text) == (2, "", err)
        assert time.process_time() - start < 0.05


def test_a_reader_that_closes_stdout_early_ends_the_process_quietly():
    # The answer is megabytes, more than a pipe holds, so it is still being
    # written when the reader goes: exit 141 (128 + SIGPIPE), and nothing on
    # stderr, neither a traceback nor an "Exception ignored" line.
    for json_flag in ([], ["--json"]):
        command, env = module_call(["decompose", "--pi1", "1", "--b2", "500000", *json_flag], {})
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), head, err) == (
            141, b'{"case": "' if json_flag else b"SM = S^5 v", b""), json_flag


def test_symbolic_d_has_one_spelling_from_the_parser_on():
    for command in ("decompose", "suspension"):
        assert parse_argv([command]).d is SYMBOLIC
        assert parse_argv([command, "--d", "symbolic"]).d is SYMBOLIC
        assert parse_argv([command, "--d", "-0"]).d == 0


def test_a_repeated_reason_is_printed_once(capsys):
    assert invoke(capsys, "parse", "--pi1", "Z/2*Z/4*Z/8") == (2, "", "error: even torsion prime\n")


def test_module_entry_point():
    proc = spawn("snf", "--matrix", "[[1,0],[0,1]]")
    assert proc.returncode == 0
    assert proc.stdout == "1 1\n"


def test_61_bit_modulus_parses_fast(capsys, hang_guard):
    # Beside the clock, line events in gauge4 frames, the same on every machine:
    # 192 at the time of writing, gated at 240.
    p = 2**61 - 1
    assert line_events(invoke, capsys, "parse", "--pi1", f"Z/{p}", limit=240) <= 240
    start = time.perf_counter()
    code, out, err = invoke(capsys, "parse", "--pi1", f"Z/{p}")
    assert time.perf_counter() - start < 0.05
    assert (code, out, err) == (0, f"pi1 = Z/{p}; b2 = 0; sigma-f = trivial\n", "")


def test_one_parser_serves_many_runs(capsys):
    # run() reads every query by the one flag table and keeps nothing from it: after a
    # usage error, a success and --json must print what a fresh process prints.
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
    # Beside the clock, line events in gauge4 frames, the same on every machine and
    # flat in b2: 386 at b2 = 10^9 and at b2 = 1 at the time of writing, gated at 480.
    huge, one = (line_events(invoke, capsys, "suspension", "--pi1", "Z*Z/3", "--b2", b2,
                             limit=480) for b2 in ("1000000000", "1"))
    assert huge == one <= 480, (huge, one)
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
# dispatch: a query whose first word names a subcommand is read by that
# subcommand's row of the flag table; the top level reads the rest


def _parsed(parse, argv):
    """The namespace parse gives argv as a dict, or the line it refuses argv with."""
    try:
        return vars(parse(argv))
    except UsageError as exc:
        return str(exc)


def test_subcommand_parser_gives_the_top_level_namespace():
    # the namespace the reference's top-level parser gave an accepted query, less the
    # subcommand's name, and the same line for a refused one
    parser = argparse_cli.build_parser()[0]
    for query in json.loads(GOLDEN.read_text())["cli"]:
        argv = query["argv"]
        top = _parsed(parser.parse_args, argv)
        if isinstance(top, dict):
            assert top.pop("command") == argv[0]
        assert _parsed(parse_argv, argv) == top


def _answer(argv, run=run):
    """run(argv)'s exit code, stdout and stderr; the reference's run exits by SystemExit
    after printing help."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


def help_texts() -> dict[str, str]:
    """HELP_COMMANDS -> what ``--help`` prints for each, read from HELP."""
    parts = HELP.read_text().split("\nusage: ")
    return dict(zip(HELP_COMMANDS, [parts[0] + "\n", *(f"usage: {p}\n" for p in parts[1:-1]),
                                    f"usage: {parts[-1]}"], strict=True))


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
         "rule: k=12, integral\nintegral: no\np=3: yes\nstabilized: no\n", ""),
        (["classify", "--group", "SU(2)", "--t", "1"], 1, "",
         "error: the following arguments are required: --s\n"),
        (["snf"], 1, "", "error: the following arguments are required: --matrix\n"),
        (["snf", "--matrix=[[2]]", "--json"], 0, '{"invariant_factors": [2], "rank": 1}\n', ""),
        (["suspension", "--d", "symb"], 1, "",
         "error: argument --d: expected an integer or 'symbolic', got 'symb'\n"),
        (["parse", "--spin", "maybe"], 1, "",
         "error: argument --spin: invalid choice: 'maybe' (choose from 'true', 'false')\n"),
        # a unique prefix is read, two are refused; a switch takes no "=" value; a
        # negative number is a value, other tokens starting "-" are not; "-" alone
        # is no flag; a help flag answers only if no error comes before it
        (["decompose", "--s", "1"], 1, "",
         "error: ambiguous option: --s could match --sigma-f, --spin\n"),
        (["decompose", "--json=1"], 1, "",
         "error: argument --json: ignored explicit argument '1'\n"),
        (["decompose", "--t", "-5"], 0, "SM = S^5; G_-5(M) = G_-5(S^4)\n", ""),
        (["decompose", "--t", "-x"], 1, "", "error: argument --t: expected one argument\n"),
        (["decompose", "--b2", "-1_1"], 1, "", "error: argument --b2: expected one argument\n"),
        (["decompose", "--t="], 1, "", "error: argument --t: invalid int value: ''\n"),
        (["decompose", "-"], 1, "", "error: unrecognized arguments: -\n"),
        (["decompose", "--b2", "x", "-h"], 1, "",
         "error: argument --b2: invalid int value: 'x'\n"),
        (["decompose", "-h", "--b2", "x"], 0, help_texts()["decompose"], ""),
        (["classify"], 1, "",
         "error: the following arguments are required: --group, --t, --s\n"),
        # at the top level "--" ends the flags only as the last token, "-" and a
        # negative number name a subcommand, and -h wins over the unknown flags before it
        (["--"], 1, "", "error: the following arguments are required: command\n"),
        (["-"], 1, "", f"error: argument command: invalid choice: '-' {CHOICES}\n"),
        (["-5", "parse"], 1, "", f"error: argument command: invalid choice: '-5' {CHOICES}\n"),
        (["-h=1"], 1, "", "error: argument -h/--help: ignored explicit argument '1'\n"),
        (["-x", "--help"], 0, help_texts()[""], ""),
        (["-x", "parse", "--nope"], 1, "", "error: unrecognized arguments: -x --nope\n"),
    ],
)
def test_dispatch_edges_print_what_the_top_level_parser_printed(capsys, argv, code, out, err):
    assert invoke(capsys, *argv) == (code, out, err)


def test_help_prints_the_pinned_text(capsys, monkeypatch):
    # the top level and each subcommand, byte for byte, exit 0, laid out for 80
    # columns whatever the terminal's width
    monkeypatch.setenv("COLUMNS", "40")
    for command in HELP_COMMANDS:
        argv = [command, "--help"] if command else ["--help"]
        assert invoke(capsys, *argv) == (0, help_texts()[command], ""), command
    # -OO strips docstrings, and the top level's text reads none
    command, env = module_call(["--help"], {})
    proc = subprocess.run([command[0], "-OO", *command[1:]], capture_output=True, text=True,
                          env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, help_texts()[""], "")


def test_a_value_given_as_equals_dash_dash_is_read_as_it_is(capsys):
    # argparse stripped "--" from an "=" value and stored an empty list, so --matrix=--
    # and --group=-- ended in a traceback and --primes=-- read no primes; the table
    # reads "--" as the value it is, and refuses it with the flag's own line.
    for argv, code, err in [
        (["decompose", "--b2=--"], 1, "argument --b2: invalid int value: '--'"),
        (["snf", "--matrix=--"], 2, SHAPE_LINE[7:-1]),
        (["classify", "--group=--", "--t", "1", "--s", "2"], 2, "bad group name: '--'"),
        (["classify", "--group", "SU(2)", "--t", "1", "--s", "2", "--primes=--"], 1,
         "argument --primes: expected a comma-separated prime list, got '--'"),
        (["parse", "--sigma-f=--"], 1,
         "argument --sigma-f: invalid choice: '--' (choose from 'trivial', 'nontrivial')"),
    ]:
        assert invoke(capsys, *argv) == (code, "", f"error: {err}\n"), argv


#: The tokens the differential puts anywhere in an argv: help flags given whole, run on
#: and with a value; the end of flags; a lone dash; an empty token; unknown flags and
#: values; prefixes, one of them ambiguous; negative numbers; an underscore; and digits of
#: other scripts.
_INSERTS = ["-h", "--help", "--he", "-hh", "-hx", "-h=", "--help=1", "--", "-", "", "--nope",
            "-x", "--pi1x", "--json=1", "--json=", "--s", "--s=1", "--=1", "--p", "extra", "-5",
            "-0.5", "-.5", "-5\n", "-1_1", "1_1", "\u0667", "-\u0667", "\uff17", "-1 2"]


def _flag_items(argv: list[str]) -> list[list[str]]:
    """argv in pieces: its subcommand, then each flag with its value if it takes one."""
    flags, items, i = COMMANDS[argv[0]][1], [[argv[0]]], 1
    while i < len(argv):
        width = 1 if flags[argv[i]][0] is None else 2
        items.append(argv[i : i + width])
        i += width
    return items


def mutate(rng: random.Random, argv: list[str]) -> list[str]:
    """argv with one to four seeded edits: flags dropped, repeated, cut to a prefix or
    joined to their values by "=", then tokens from _INSERTS put anywhere, the front
    (where no subcommand is named) included."""
    items = _flag_items(argv)
    edits, inserts = rng.randint(0, 2), rng.randint(0, 2)
    for _ in range(edits if edits or inserts else 1):
        if len(items) == 1:
            break
        i, edit = rng.randrange(1, len(items)), rng.randrange(4)
        if edit == 0:
            del items[i]
        elif edit == 1:
            items.insert(rng.randrange(1, len(items) + 1), list(items[i]))
        elif edit == 2:
            items[i] = [items[i][0][: rng.randint(3, len(items[i][0]))], *items[i][1:]]
        elif len(items[i]) == 2:
            items[i] = ["=".join(items[i])]
    tokens = [token for item in items for token in item]
    for _ in range(inserts):
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(_INSERTS))
    return tokens


def test_seeded_argv_read_as_the_argparse_reference_read_them(capsys, monkeypatch):
    # 2 160 argv, four seeded mutants of each golden query: the same exit code, stdout
    # and stderr as the argparse front end gave, and for a query it accepted the same
    # namespace.  The corpus reaches each way a flag can be misused.
    monkeypatch.setenv("COLUMNS", "80")  # the reference lays help out for the terminal
    rng, outcomes = random.Random(33), {}
    commands = argparse_cli.build_parser()[1]
    for query in json.loads(GOLDEN.read_text())["cli"]:
        for _ in range(4):
            argv = mutate(rng, query["argv"])
            want = _answer(argv, argparse_cli.run)
            assert invoke(capsys, *argv) == want, argv
            if want[1].startswith("usage: "):
                kind = "help"
            elif want[0] == 1:
                kind = want[2][7:].split(":")[0]
            else:
                kind = want[0]
            if kind == 0:
                assert vars(parse_argv(argv)) == vars(commands[argv[0]].parse_args(argv[1:]))
            outcomes[kind] = outcomes.get(kind, 0) + 1
    assert sum(outcomes.values()) == 2160
    assert min(outcomes.get(kind, 0) for kind in (
        0, 2, "help", "ambiguous option", "unrecognized arguments", "argument --b2",
        "argument -h/--help", "argument --json", "the following arguments are required",
        "argument command")) >= 5, outcomes


def test_reading_argv_is_linear_in_its_tokens():
    # Line events in gauge4 frames, not a clock: twice the tokens cost at most 2.2 times
    # the lines, for a long --primes list, a repeated flag and a repeated prefix.
    n = 400
    spec = ["classify", "--group", "SU(2)", "--t", "1", "--s", "2"]
    for grow in (lambda k: [*spec, "--primes", ",".join(["3"] * k)],
                 lambda k: ["decompose", *["--b2", "1"] * k],
                 lambda k: [*spec, *["--pr", "3"] * k]):
        once, twice = (line_events(parse_argv, grow(k)) for k in (n, 2 * n))
        assert n <= once and twice <= 2.2 * once, (grow(1), once, twice)


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
    code, out, err = invoke(capsys, *argv)
    assert (code, out.splitlines()[0], err) == (0, usage, "")


# --------------------------------------------------------------------------
# the surface of each subcommand: decompose and suspension share one
# handler, and --json is declared once for all six


USAGES = {
    "decompose": "usage: gauge4 decompose [-h] [--pi1 PI1] [--b2 B2]\n"
                 "                        [--sigma-f {trivial,nontrivial}] [--spin {true,false}]\n"
                 "                        [--t T] [--d D] [--json]\n",
    "suspension": "usage: gauge4 suspension [-h] [--pi1 PI1] [--b2 B2]\n"
                  "                         [--sigma-f {trivial,nontrivial}]\n"
                  "                         [--spin {true,false}] [--d D] [--json]\n",
    "homology": "usage: gauge4 homology [-h] [--pi1 PI1] [--b2 B2]\n"
                "                       [--sigma-f {trivial,nontrivial}] [--spin {true,false}]\n"
                "                       [--suspension] [--json]\n",
    "classify": "usage: gauge4 classify [-h] [--pi1 PI1] [--b2 B2]\n"
                "                       [--sigma-f {trivial,nontrivial}] [--spin {true,false}]\n"
                "                       --group GROUP --t T --s S [--primes PRIMES] [--json]\n",
    "snf": "usage: gauge4 snf [-h] --matrix MATRIX [--json]\n",
    "parse": "usage: gauge4 parse [-h] [--pi1 PI1] [--b2 B2]\n"
             "                    [--sigma-f {trivial,nontrivial}] [--spin {true,false}]\n"
             "                    [--json]\n",
}


def test_every_subcommand_keeps_its_usage(capsys, monkeypatch):
    # the paragraph --help opens with, wrapped for 80 columns whatever the terminal's width
    monkeypatch.setenv("COLUMNS", "200")
    usages = {name: invoke(capsys, name, "--help")[1].split("\n\n")[0] + "\n"
              for name in COMMANDS}
    assert usages == USAGES
    assert list(COMMANDS) == list(USAGES)
    assert invoke(capsys, "--help")[1].split("\n\n")[0] == TOP_USAGE


def test_decompose_and_suspension_share_one_handler(capsys):
    handler = parse_argv(["decompose"]).handler
    assert parse_argv(["suspension"]).handler is handler
    # suspension takes t = 0 from its defaults and still has no --t flag
    assert invoke(capsys, "suspension", "--t", "1") == (
        1, "", "error: unrecognized arguments: --t 1\n")
    assert invoke(capsys, "suspension", "--b2", "1") == (0, "SM = S^5 v S^3\n", "")


def test_every_subcommand_accepts_json(capsys):
    required = {"classify": ["--group", "SU(2)", "--t", "1", "--s", "2"],
                "snf": ["--matrix", "[[2]]"]}
    for command in COMMANDS:
        argv = [*required.get(command, []), "--json"]
        assert parse_argv([command, *argv]).json is True
        code, out, err = invoke(capsys, command, *argv)
        assert (code, err, out.count("\n")) == (0, "", 1), command
        assert isinstance(json.loads(out), dict)


if __name__ == "__main__":
    texts = [_answer([command, "--help"] if command else ["--help"]) for command in HELP_COMMANDS]
    assert all(code == 0 and err == "" for code, _, err in texts)
    HELP.write_text("".join(out for _, out, _ in texts))
    print(f"wrote the help of {len(texts)} parsers to {HELP}", file=sys.stderr)
