"""Tests of the benchmark's own oracles: hand-worked answers pass, wrong ones fail.

    python3 -m pytest bench
"""

import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles as o  # noqa: E402
from oracles import OracleError, Spec, Verdict  # noqa: E402

Z9 = Spec(0, (9,), 1, True)
README_Z9 = "SM = S^5 v P^4(9) v S^3 v P^3(9); G_2(M) = G_2(S^4) x O^3G{9} x O^2G x O^2G{9}"
README_Z3 = ("SM = SCP^2 v P^4(3) v S^3 v P^3(3); "
             "G_4(M) = G_4(CP^2) x O^3G{3} x O^2G x O^2G{3}")
MIXED = Spec(1, (3,), 1, True)
README_SYMBOLIC = (
    "S(M #_d(S^2xS^2)) = S^5 v S^4 v P^4(3) v (S^3)^{1+2d} v P^3(3) v S^2; "
    "G_7(M) x (O^2G)^{2d} ~ G_7(S^4) x O^3G x O^3G{3} x (O^2G)^{1+2d} x O^2G{3} x O^1G"
)
README_D1 = (
    "S(M #_1(S^2xS^2)) = S^5 v S^4 v P^4(3) v S^3 v S^3 v S^3 v P^3(3) v S^2; "
    "G_7(M) x (O^2G)^2 ~ G_7(S^4) x O^3G x O^3G{3} x O^2G x O^2G x O^2G x O^2G{3} x O^1G"
)


# --------------------------------------------------------------------------
# summand counts


def test_decomposition_text_accepts_hand_worked_cases():
    assert o.check_decomposition_text(README_Z9, Z9, 2, None) == 4
    assert o.check_decomposition_text(README_Z3, Spec(0, (3,), 2, False), 4, None) == 4
    assert o.check_decomposition_text(README_SYMBOLIC, MIXED, 7, None) == 6
    assert o.check_decomposition_text(README_D1, MIXED, 7, 1) == 8
    # A trivial pi1 ignores d: the splitting holds on the nose.
    line = "SM = S^5 v S^3 v S^3; G_3(M) = G_3(S^4) x O^2G x O^2G"
    assert o.check_decomposition_text(line, Spec(0, (), 2, True), 3, 5) == 3


@pytest.mark.parametrize("line, spec, t, d", [
    (README_Z9.replace("v S^3 ", ""), Z9, 2, None),  # an S^3 missing
    (README_Z9.replace("P^3(9)", "P^3(3)"), Z9, 2, None),  # wrong modulus
    (README_Z9.replace("O^3G{9}", "O^2G{9}"), Z9, 2, None),  # wrong loop order
    (README_Z9.replace("G_2(S^4)", "G_2(CP^2)"), Z9, 2, None),  # wrong base
    (README_Z9, Z9, 3, None),  # wrong t
    (README_Z9.replace("SM", "S(M #_d(S^2xS^2))"), Z9, 2, None),  # stabilized by mistake
    (README_SYMBOLIC.replace("{1+2d}", "{2+2d}", 1), MIXED, 7, None),
    (README_SYMBOLIC.replace("(O^2G)^{1+2d}", "O^2G"), MIXED, 7, None),
    (README_D1, MIXED, 7, 2),  # d = 2 needs five S^3
    (README_D1.replace("(O^2G)^2", "(O^2G)^{2d}"), MIXED, 7, 1),
    (README_Z9.replace("S^5", "SCP^2"), Z9, 2, None),
    (README_Z9.replace("; ", " ; "), Z9, 2, None),
])
def test_decomposition_text_rejects_wrong_output(line, spec, t, d):
    with pytest.raises(OracleError):
        o.check_decomposition_text(line, spec, t, d)


def _json_doc(gauge_factors=((3, 9), (2, None), (2, 9))):
    return {
        "case": "cyclic",
        "suspension": [
            {"kind": "sphere", "dim": 5, "modulus": None},
            {"kind": "moore", "dim": 4, "modulus": 9},
            {"kind": "sphere", "dim": 3, "modulus": None},
            {"kind": "moore", "dim": 3, "modulus": 9},
        ],
        "gauge": {"base": "S4", "t": 2, "stabilization": 0,
                  "factors": [{"loop_order": k, "modulus": q} for k, q in gauge_factors]},
    }


def test_decomposition_json():
    assert o.check_decomposition_json(_json_doc(), Z9, 2, None) == 4
    with pytest.raises(OracleError):
        o.check_decomposition_json(_json_doc(((3, 9), (2, None))), Z9, 2, None)
    wrong_case = dict(_json_doc(), case="mixed")
    with pytest.raises(OracleError):
        o.check_decomposition_json(wrong_case, Z9, 2, None)
    susp = {"case": "cyclic", "suspension": _json_doc()["suspension"], "stabilization": 0}
    assert o.check_decomposition_json(susp, Z9, None, None) == 4
    with pytest.raises(OracleError):
        o.check_decomposition_json(dict(susp, suspension=susp["suspension"][:3]), Z9, None, None)


# --------------------------------------------------------------------------
# homology


README_HOMOLOGY = "H_0 = Z\nH_1 = Z/9\nH_2 = Z + Z/9\nH_3 = 0\nH_4 = Z\nH_5 = 0"


def test_homology_hand_worked():
    groups = o.read_homology_text(README_HOMOLOGY)
    assert groups == [(1, ()), (0, (9,)), (1, (9,)), (0, ()), (1, ()), (0, ())]
    o.check_homology(groups, Z9)
    o.check_homology([(1, ()), (0, ()), (0, (9,)), (1, (9,)), (0, ()), (1, ())], Z9, suspended=True)
    free = Spec(2, (3, 5), 4, True)
    o.check_homology(o.read_homology_text(
        "H_0 = Z\nH_1 = Z^2 + Z/3 + Z/5\nH_2 = Z^4 + Z/3 + Z/5\nH_3 = Z^2\nH_4 = Z\nH_5 = 0"), free)


@pytest.mark.parametrize("text", [
    README_HOMOLOGY.replace("H_2 = Z + Z/9", "H_2 = Z"),
    README_HOMOLOGY.replace("H_1 = Z/9", "H_1 = Z/3"),
    README_HOMOLOGY.replace("H_3 = 0", "H_3 = Z"),
    README_HOMOLOGY.replace("H_4 = Z", "H_4 = 0"),
])
def test_homology_rejects_wrong_output(text):
    with pytest.raises(OracleError):
        o.check_homology(o.read_homology_text(text), Z9)


def test_homology_json_reader():
    doc = {"homology": [{"degree": i, "rank": r, "torsion": list(t)}
                        for i, (r, t) in enumerate(o.expected_homology(Z9))]}
    o.check_homology(o.read_homology_json(doc), Z9)


# --------------------------------------------------------------------------
# Smith normal form


@pytest.mark.parametrize("rows, factors", [
    ([[2, 0], [0, 3]], [1, 6]),
    ([[2, 0], [0, 2]], [2, 2]),
    ([[1, 2], [2, 4]], [1]),
    ([[0, 0], [0, 0]], []),
    ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], [2, 6, 12]),
])
def test_snf_accepts_hand_worked(rows, factors):
    o.check_snf(rows, factors, len(factors))


@pytest.mark.parametrize("rows, factors", [
    ([[2, 0], [0, 3]], [2, 3]),  # 2 does not divide 3
    ([[2, 0], [0, 3]], [1, 5]),  # product is not |det|
    ([[2, 0], [0, 2]], [1, 4]),  # divides, product right, wrong rank mod 2
    ([[1, 2], [2, 4]], [2]),  # rank mod 2 is 1, so no factor is even
    ([[1, 2], [2, 4]], [1, 1]),  # rank over Q is 1
    ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], [2, 2, 36]),
])
def test_snf_rejects_wrong_output(rows, factors):
    with pytest.raises(OracleError):
        o.check_snf(rows, factors, len(factors))


def _rank_det_by_fractions(rows):
    a = [[Fraction(v) for v in r] for r in rows]
    n, cols, rank, det = len(a), len(a[0]), 0, Fraction(1)
    for col in range(cols):
        pivot = next((i for i in range(rank, n) if a[i][col]), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            det = -det
        det *= a[rank][col]
        for i in range(rank + 1, n):
            f = a[i][col] / a[rank][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank, (det if rank == n == cols else 0)


def test_bareiss_matches_rational_elimination():
    rng = random.Random(5)
    for _ in range(300):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(m)] for _ in range(n)]
        assert o.bareiss(rows) == _rank_det_by_fractions(rows)


def test_primes():
    sieve = [p for p in range(2, 5000) if all(p % d for d in range(2, int(p**0.5) + 1))]
    assert [n for n in range(5000) if o.is_prime(n)] == sieve
    assert o.is_prime(2**61 - 1) and not o.is_prime(561) and not o.is_prime(3215031751)
    assert o.prime_factors(-360) == [2, 3, 5]


# --------------------------------------------------------------------------
# classification


SU2, SU3, G2 = ("SU", 2), ("SU", 3), ("G2", None)
SPIN = Spec(0, (), 2, True)


def test_verdicts_accept_hand_worked():
    # gcd(12, 1) = gcd(12, 5) = 1: G_1 and G_5 agree over a spin M (Kono).
    o.check_verdict(Verdict("yes", {3: "yes"}, False, 12, "integral"), SU2, SPIN, 1, 5, (3,))
    o.check_verdict(Verdict("no", {3: "no"}, False, 12, "integral"), SU2, SPIN, 2, 4, (3,))
    o.check_verdict(Verdict("no", {}, False, 24, "integral"), SU3, SPIN, 8, 4, ())
    o.check_verdict(Verdict("unknown", {2: "unknown", 7: "yes"}, True), G2, MIXED, 1, 5, (2, 7))
    o.check_verdict(Verdict("yes", {}, False), G2, SPIN, -4, 4, ())


@pytest.mark.parametrize("v, group, spec, t, s, primes", [
    (Verdict("no", {}, False), SU2, SPIN, 1, 5, ()),  # gcd rule says yes
    (Verdict("yes", {}, False), SU3, SPIN, 8, 4, ()),  # gcd(24, 8) != gcd(24, 4)
    (Verdict("yes", {}, False, 6, "integral"), SU2, SPIN, 1, 5, ()),  # wrong k
    (Verdict("unknown", {}, False), G2, SPIN, 3, -3, ()),  # not reflexive
    (Verdict("yes", {5: "no"}, False), G2, SPIN, 3, 3, (5,)),  # integral yes, local no
    (Verdict("unknown", {}, False), G2, MIXED, 1, 5, ()),  # mixed pi1 is stabilized
    (Verdict("unknown", {3: "yes"}, False), G2, SPIN, 1, 5, (2, 3)),  # a prime missing
    (Verdict("maybe", {}, False), G2, SPIN, 1, 5, ()),
    (Verdict("unknown", {7: "no"}, False), G2, SPIN, 1, 1 + o.PERIOD, (7,)),
])
def test_verdicts_reject_wrong_output(v, group, spec, t, s, primes):
    with pytest.raises(OracleError):
        o.check_verdict(v, group, spec, t, s, primes)


def test_verdict_laws():
    yes, unknown = Verdict("yes", {}, False), Verdict("unknown", {}, False)
    o.check_verdict_laws(unknown, unknown, yes, unknown, 1, 5)
    with pytest.raises(OracleError):  # not symmetric
        o.check_verdict_laws(unknown, yes, yes, unknown, 1, 5)
    with pytest.raises(OracleError):  # not reflexive
        o.check_verdict_laws(unknown, unknown, unknown, unknown, 1, 5)
    with pytest.raises(OracleError):  # moved by t -> t + k
        o.check_verdict_laws(unknown, unknown, yes, yes, 1, 5)
    # s = t + k: the shifted query compares equal |t| and may answer yes.
    o.check_verdict_laws(unknown, unknown, yes, yes, 1, 1 + o.PERIOD)


def test_verdict_readers():
    text = ("rule: k=60, odd-primes, odd primes p with (p-1)^2+1 >= 4\n"
            "integral: unknown\np=2: unknown\np=3: no\nstabilized: no")
    assert o.read_verdict_text(text) == Verdict("unknown", {2: "unknown", 3: "no"}, False,
                                                60, "odd-primes")
    assert o.read_verdict_text("rule: none\nintegral: yes\nstabilized: yes") == \
        Verdict("yes", {}, True, None, None)
    doc = {"verdict": {"integral": "no", "local": {"5": "no"}, "stabilized": False,
                       "rule": {"k": 12, "scope": "integral", "odd_prime_bound": None}}}
    assert o.read_verdict_json(doc) == Verdict("no", {5: "no"}, False, 12, "integral")
    with pytest.raises(OracleError):
        o.read_verdict_text("integral: yes\nstabilized: no")


# --------------------------------------------------------------------------
# the parse subcommand and pi1


def test_parse_output():
    spec = Spec(1, (9,), 3, True)
    o.check_parse_text("pi1 = Z*Z/9; b2 = 3; sigma-f = trivial", spec)
    o.check_parse_json({"pi1": "Z*Z/9", "free_rank": 1, "cyclic_factors": [[3, 2]],
                        "b2": 3, "sigma_f_trivial": True}, spec)
    for wrong in ("pi1 = Z*Z/9; b2 = 4; sigma-f = trivial",
                  "pi1 = Z/9; b2 = 3; sigma-f = trivial",
                  "pi1 = Z*Z/27; b2 = 3; sigma-f = trivial",
                  "pi1 = Z*Z/9; b2 = 3; sigma-f = nontrivial"):
        with pytest.raises(OracleError):
            o.check_parse_text(wrong, spec)
    with pytest.raises(OracleError):  # 15 is not a prime power
        o.check_pi1(0, [(15, 1)], 0, (15,))
    with pytest.raises(OracleError):
        o.check_pi1(0, [(3, 1)], 0, (9,))


# --------------------------------------------------------------------------
# the oracles accept what the program really outputs


def test_one_round_of_each_workload_passes_its_checks():
    import workloads

    from gauge4 import cli

    assert Path(cli.__file__).resolve().parent.parent.name == "src"
    api = SimpleNamespace(**{n.split(".")[1]: f for n, f in workloads.LAYERS.items()})
    for name, wl in workloads.WORKLOADS.items():
        counts = dict.fromkeys(workloads.COUNTS, 0)
        for op in wl.make_round(random.Random(f"test:{name}")):
            small = op.kind != "scale" or op.args[0].b2 + (op.args[3] or 0) < 3000
            if op.fault or not small:
                continue
            run, check = workloads.KINDS[op.kind]
            check(run(api, *op.args), counts, *op.args)
        assert any(counts.values())


def test_tracer_self_time():
    import run

    tracer = run.Tracer()
    tracer.spans += [(1, "a", 1.0, 3.0, True), (1, "b", 3.5, 9.0, False),
                     (1, "op", 0.0, 10.0, False), (2, "a", 10.5, 11.0, True),
                     (2, "op", 10.0, 12.0, True)]
    rows = tracer.rows()
    assert [(r[0], r[1]) for r in rows] == [(1, "op"), (1, "a"), (1, "b"), (2, "op"), (2, "a")]
    named = {(r[0], r[1]): r for r in rows}
    assert named[1, "op"][2] == "" and named[1, "op"][5] == pytest.approx(2.5)
    assert named[1, "b"][2] == "op" and named[1, "b"][5] == pytest.approx(5.5)
    assert not named[1, "b"][6]
    assert named[2, "op"][5] == pytest.approx(1.5) and named[2, "a"][5] == pytest.approx(0.5)
