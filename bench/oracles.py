"""Independent oracles for the benchmark's outputs.

Nothing here imports gauge4.  Each check recomputes what the answer must
be from the inputs the benchmark generated (the paper's summand counts,
the homology of the manifold, invariants of the Smith normal form, the gcd
laws of the classification) and raises OracleError when an output
disagrees.  Readers turn the command line's text and ``--json`` output
into the same plain values, so one check serves both front ends.

A manifold is described by ``Spec(m, moduli, b2, spin)``: pi1 is the free
product of m copies of Z and of Z/q for each q in ``moduli`` (odd prime
powers), b2 the second Betti number, and ``spin`` the top-cell flag.
Wedge and product multiplicities are ``(a, b)`` pairs meaning a + b*d.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from math import gcd
from typing import NamedTuple


class OracleError(AssertionError):
    """An output the oracle rejects."""


class Spec(NamedTuple):
    m: int
    moduli: tuple[int, ...]
    b2: int
    spin: bool

    @property
    def mixed(self) -> bool:
        """A genuine free product: only split after stabilization."""
        k = len(self.moduli)
        return k >= 2 or (k == 1 and self.m >= 1)

    @property
    def case(self) -> str:
        if self.mixed:
            return "mixed"
        if self.moduli:
            return "cyclic"
        return "free" if self.m else "simply_connected"


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


# --------------------------------------------------------------------------
# arithmetic of our own


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the prime bases up to 37 cover n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct primes dividing n != 0, by trial division (n stays small here)."""
    n, out, p = abs(n), [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def as_prime_power(q: int) -> tuple[int, int]:
    for p in prime_factors(q):
        r, rest = 0, q
        while rest % p == 0:
            rest, r = rest // p, r + 1
        expect(rest == 1, f"{q} is not a prime power")
        return p, r
    raise OracleError(f"{q} is not a prime power")


def bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """(rank over Q, determinant) by fraction-free elimination.

    The determinant is reported only for square matrices (0 when singular);
    every division in the recurrence is exact.
    """
    a = [list(r) for r in rows]
    n_rows, n_cols = len(a), len(a[0]) if a else 0
    prev, rank, sign = 1, 0, 1
    for col in range(n_cols):
        pivot = next((i for i in range(rank, n_rows) if a[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            sign = -sign
        for i in range(rank + 1, n_rows):
            for j in range(col + 1, n_cols):
                a[i][j] = (a[rank][col] * a[i][j] - a[i][col] * a[rank][j]) // prev
            a[i][col] = 0
        prev = a[rank][col]
        rank += 1
    square = n_rows == n_cols
    det = sign * prev if square and rank == n_rows else 0
    return rank, det


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    a = [[v % p for v in r] for r in rows]
    n_rows, n_cols = len(a), len(a[0]) if a else 0
    rank = 0
    for col in range(n_cols):
        pivot = next((i for i in range(rank, n_rows) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][col], -1, p)
        for i in range(rank + 1, n_rows):
            f = a[i][col] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


# --------------------------------------------------------------------------
# fundamental group


def check_pi1(free_rank: int, factors, spec_m: int, spec_moduli) -> None:
    """A parsed pi1: free rank and (p, r) factors of the same group."""
    expect(free_rank == spec_m, f"free rank {free_rank}, expected {spec_m}")
    for p, r in factors:
        expect(r >= 1 and is_prime(p), f"cyclic factor {(p, r)} is not p^r with p prime")
    got = sorted(p**r for p, r in factors)
    expect(got == sorted(spec_moduli), f"cyclic moduli {got}, expected {sorted(spec_moduli)}")


def read_pi1_text(text: str) -> tuple[int, list[tuple[int, int]]]:
    if text == "1":
        return 0, []
    m, factors = 0, []
    for atom in text.split("*"):
        if atom == "Z":
            m += 1
            continue
        found = re.fullmatch(r"Z/(\d+)", atom)
        expect(found is not None, f"bad pi1 atom {atom!r}")
        factors.append(as_prime_power(int(found.group(1))))
    return m, factors


# --------------------------------------------------------------------------
# summand counts (the paper's splitting of SM and of the gauge group)


def expected_wedge(spec: Spec, d) -> Counter:
    """Wedge summands of S(M #_d (S^2 x S^2)) with multiplicities a + b*d.

    One base summand (S^5, or SCP^2 when the top cell is not spin); m
    copies each of S^4 and S^2; P^4(q) and P^3(q) for each cyclic factor;
    and b2 + 2d copies of S^3, or b2 - 1 + 2d when one 2-cell is spent on
    the CP^2 block.  d is None for symbolic d and 0 when not stabilized.
    """
    out: Counter = Counter()
    out["S^5" if spec.spin else "SCP^2"] = (1, 0)
    if spec.m:
        out["S^4"] = out["S^2"] = (spec.m, 0)
    for q in spec.moduli:
        for dim in (4, 3):
            a, _ = out.get(f"P^{dim}({q})", (0, 0))
            out[f"P^{dim}({q})"] = (a + 1, 0)
    n3 = spec.b2 if spec.spin else spec.b2 - 1
    s3 = (n3, 2) if d is None else (n3 + 2 * d, 0)
    if s3 != (0, 0):
        out["S^3"] = s3
    return out


def expected_factors(wedge: Counter) -> Counter:
    """Map*(S^k, G) = O^{k-1}G and Map*(P^k(q), G) = O^{k-1}G{q}."""
    out: Counter = Counter()
    for atom, count in wedge.items():
        if atom in ("S^5", "SCP^2"):
            continue
        found = re.fullmatch(r"(?:S\^(\d)|P\^(\d)\((\d+)\))", atom)
        if found.group(1):
            out[f"O^{int(found.group(1)) - 1}G"] = count
        else:
            out[f"O^{int(found.group(2)) - 1}G{{{found.group(3)}}}"] = count
    return out


_WEDGE_ATOM = re.compile(r"S\^\d+|P\^\d+\(\d+\)|SCP\^2")
_FACTOR_ATOM = re.compile(r"O\^\dG(?:\{\d+\})?")


def _count(tokens: list[str], atom_re: re.Pattern, block: str) -> Counter:
    """Multiplicities of rendered atoms; ``(X)^{n+2d}`` blocks are symbolic."""
    out: Counter = Counter()
    for token, n in Counter(tokens).items():
        sym = re.fullmatch(re.escape(f"({block})^{{") + r"(?:(\d+)\+)?2d\}", token)
        if sym:
            expect(n == 1, f"symbolic block {token} repeated")
            a, _ = out.get(block, (0, 0))
            out[block] = (a + int(sym.group(1) or 0), 2)
            continue
        expect(atom_re.fullmatch(token) is not None, f"bad atom {token!r}")
        a, b = out.get(token, (0, 0))
        out[token] = (a + n, b)
    return out


def _stab_label(d) -> str:
    return "d" if d is None else str(d)


def read_suspension_half(text: str, d) -> Counter:
    left, sep, body = text.partition(" = ")
    expect(sep == " = ", f"no '=' in {text[:80]!r}")
    want = "SM" if d == 0 else f"S(M #_{_stab_label(d)}(S^2xS^2))"
    expect(left == want, f"left side {left!r}, expected {want!r}")
    return _count(body.split(" v "), _WEDGE_ATOM, "S^3")


def read_gauge_half(text: str, spec: Spec, t: int, d) -> Counter:
    left, sep, body = text.partition(" = " if d == 0 else " ~ ")
    expect(bool(sep), f"no relation in {text[:80]!r}")
    if d == 0:
        want = f"G_{t}(M)"
    else:
        want = f"G_{t}(M) x (O^2G)^{'{2d}' if d is None else 2 * d}"
    expect(left == want, f"gauge left side {left!r}, expected {want!r}")
    tokens = body.split(" x ")
    base = f"G_{t}({'S^4' if spec.spin else 'CP^2'})"
    expect(tokens.count(base) == 1, f"base {base} missing or repeated")
    tokens.remove(base)
    return _count(tokens, _FACTOR_ATOM, "O^2G")


def check_decomposition_text(line: str, spec: Spec, t: int, d) -> int:
    """Check ``SM = ...; G_t(M) = ...``; return the wedge summand count.

    ``d`` is the stabilization count the program was asked for; it only
    applies to mixed pi1 (None there means symbolic), elsewhere it is 0.
    """
    susp, sep, gauge = line.partition("; ")
    expect(bool(sep), "no '; ' between the halves")
    summands = check_suspension_text(susp, spec, d)
    d = d if spec.mixed else 0
    factors = read_gauge_half(gauge, spec, t, d)
    want = expected_factors(expected_wedge(spec, d))
    expect(factors == want, f"gauge factors {dict(factors)}, expected {dict(want)}")
    return summands


def check_suspension_text(line: str, spec: Spec, d) -> int:
    """The suspension half alone, as the ``suspension`` subcommand prints it."""
    d = d if spec.mixed else 0
    wedge = expected_wedge(spec, d)
    got = read_suspension_half(line, d)
    expect(got == wedge, f"wedge summands {dict(got)}, expected {dict(wedge)}")
    return sum(a for a, _ in wedge.values())


def check_decomposition_json(doc: dict, spec: Spec, t: int | None, d) -> int:
    """The ``--json`` form: expanded atoms, d-independent when d is symbolic."""
    d = d if spec.mixed else 0
    expect(doc["case"] == spec.case, f"case {doc['case']}, expected {spec.case}")
    wedge = expected_wedge(spec, d)
    base = {a: (n, 0) for a, (n, _) in wedge.items() if n}
    names = {"sphere": "S^{dim}", "moore": "P^{dim}({modulus})", "susp_cp2": "SCP^2"}
    atoms = Counter(names[a["kind"]].format(**a) for a in doc["suspension"])
    expect({a: (n, 0) for a, n in atoms.items()} == base, f"wedge summands {dict(atoms)}")
    stab = "symbolic" if d is None else d
    if "gauge" in doc:
        g = doc["gauge"]
        expect(g["t"] == t and g["stabilization"] == stab, f"gauge header {g}")
        expect(g["base"] == ("S4" if spec.spin else "CP2"), f"gauge base {g['base']}")
        factors = Counter(
            f"O^{f['loop_order']}G" + ("" if f["modulus"] is None else f"{{{f['modulus']}}}")
            for f in g["factors"]
        )
        want = {a: (n, 0) for a, (n, _) in expected_factors(wedge).items() if n}
        expect({a: (n, 0) for a, n in factors.items()} == want, f"gauge factors {dict(factors)}")
    else:
        expect(doc["stabilization"] == stab, f"stabilization {doc['stabilization']}")
    return sum(atoms.values())


# --------------------------------------------------------------------------
# homology


def expected_homology(spec: Spec, suspended: bool = False) -> list[tuple[int, tuple[int, ...]]]:
    """H_0..H_5: Z, Z^m + (+)Z/q, Z^b2 + (+)Z/q, Z^m, Z, 0; suspension shifts up."""
    tors = tuple(sorted(spec.moduli))
    groups = [(1, ()), (spec.m, tors), (spec.b2, tors), (spec.m, ()), (1, ()), (0, ())]
    if suspended:
        groups = [(1, ()), (0, ())] + groups[1:5]
    return groups


def check_homology(groups, spec: Spec, suspended: bool = False) -> None:
    got = [(rank, tuple(sorted(tors))) for rank, tors in groups]
    want = expected_homology(spec, suspended)
    expect(got == want, f"homology {got}, expected {want}")
    if not suspended:
        chi = sum((-1) ** i * rank for i, (rank, _) in enumerate(got))
        expect(chi == 2 - 2 * spec.m + spec.b2, f"Euler characteristic {chi}")


def read_homology_text(text: str) -> list[tuple[int, tuple[int, ...]]]:
    groups = []
    for i, line in enumerate(text.splitlines()):
        head, sep, body = line.partition(" = ")
        expect(head == f"H_{i}" and bool(sep), f"bad homology line {line!r}")
        rank, tors = 0, []
        for part in ([] if body == "0" else body.split(" + ")):
            found = re.fullmatch(r"Z(?:\^(\d+)|/(\d+))?", part)
            expect(found is not None, f"bad group {part!r}")
            if found.group(2):
                tors.append(int(found.group(2)))
            else:
                rank += int(found.group(1) or 1)
        groups.append((rank, tuple(tors)))
    return groups


def read_homology_json(doc: dict) -> list[tuple[int, tuple[int, ...]]]:
    rows = doc["homology"]
    expect([r["degree"] for r in rows] == list(range(len(rows))), "degrees out of order")
    return [(r["rank"], tuple(r["torsion"])) for r in rows]


# --------------------------------------------------------------------------
# Smith normal form


def check_snf(rows: list[list[int]], factors, rank: int) -> None:
    """Invariant factors of an integer matrix, without a reference SNF.

    d_i | d_{i+1}; the rank equals the rank over Q; for a square
    nonsingular matrix the product of the d_i is |det|; and for each prime
    p (those dividing det, plus 2, 3, 5, 7) the number of d_i divisible by
    p is the rank minus the rank mod p.
    """
    factors = list(factors)
    expect(all(isinstance(v, int) and v > 0 for v in factors), f"factors {factors}")
    expect(len(factors) == rank, f"rank {rank} but {len(factors)} factors")
    expect(all(b % a == 0 for a, b in zip(factors, factors[1:])), f"divisibility {factors}")
    q_rank, det = bareiss(rows)
    expect(rank == q_rank, f"rank {rank}, rank over Q is {q_rank}")
    primes = {2, 3, 5, 7}
    if det:
        product = 1
        for v in factors:
            product *= v
        expect(product == abs(det), f"product {product} != |det| {abs(det)}")
        primes.update(prime_factors(det))
    for p in sorted(primes):
        divisible = sum(1 for v in factors if v % p == 0)
        expect(divisible == rank - rank_mod_p(rows, p), f"p={p}: {factors}")


def read_snf_text(text: str) -> tuple[list[int], int]:
    factors = [int(v) for v in text.split()]
    return factors, len(factors)


def read_snf_json(doc: dict) -> tuple[list[int], int]:
    return doc["invariant_factors"], doc["rank"]


# --------------------------------------------------------------------------
# classification verdicts

#: A multiple of every gcd modulus k in the rule tables for SU(n <= 5),
#: Sp(n <= 3) and G2, so t -> t + PERIOD leaves every gcd(k, t) alone.
PERIOD = 232792560  # lcm(1..20)

VALUES = ("yes", "no", "unknown")


class Verdict(NamedTuple):
    integral: str
    local: dict[int, str]
    stabilized: bool
    k: int | None = None
    scope: str | None = None


def check_verdict(v: Verdict, group: tuple, spec: Spec, t: int, s: int, primes) -> None:
    """Laws one verdict must obey on its own.

    Values are yes/no/unknown with one local verdict per requested prime;
    the stabilized flag marks mixed pi1; equal |t| and |s| give yes
    everywhere; an integral yes is a yes at every prime; and over a spin M,
    SU(2) and SU(3) follow the integral gcd rule with k = 12 (Kono 1991)
    and k = 24 (Hamanaka-Kono 2006).
    """
    expect(v.integral in VALUES and all(x in VALUES for x in v.local.values()), f"{v}")
    expect(sorted(v.local) == sorted(set(primes)), f"local keys {sorted(v.local)}")
    expect(v.stabilized == spec.mixed, f"stabilized {v.stabilized}")
    if abs(t) == abs(s):
        expect(v.integral == "yes", f"reflexive t={t}: {v.integral}")
    if v.integral == "yes":
        expect(all(x == "yes" for x in v.local.values()), f"integral yes, local {v.local}")
    k = {("SU", 2): 12, ("SU", 3): 24}.get(group) if spec.spin else None
    if k is not None:
        want = "yes" if gcd(k, t) == gcd(k, s) else "no"
        expect(v.integral == want, f"{group} k={k} t={t} s={s}: {v.integral}, expected {want}")
        if v.k is not None:
            expect((v.k, v.scope) == (k, "integral"), f"rule k={v.k} {v.scope}")
    if (t - s) % PERIOD == 0:
        values = [v.integral, *v.local.values()]
        expect("no" not in values, f"t = s mod every k, yet {v}")


def check_verdict_laws(v_ts: Verdict, v_st: Verdict, v_tt: Verdict, v_shift: Verdict,
                       t: int, s: int) -> None:
    """Symmetry, reflexivity and invariance under t -> t + k."""
    expect(v_ts[:3] == v_st[:3], f"not symmetric: {v_ts} vs {v_st}")
    expect(v_tt.integral == "yes", f"not reflexive: {v_tt}")
    if abs(s) not in (abs(t), abs(t + PERIOD)):  # equal |t|, |s| answer yes outright
        expect(v_ts[:3] == v_shift[:3], f"t -> t + k changed {v_ts} to {v_shift}")


_RULE_RE = re.compile(r"rule: (?:none|k=(\d+), ([a-z-]+)(?:, .*)?)")


def read_verdict_text(text: str) -> Verdict:
    lines = text.splitlines()
    rule = _RULE_RE.fullmatch(lines[0])
    expect(rule is not None, f"bad rule line {lines[0]!r}")
    head, _, integral = lines[1].partition(": ")
    expect(head == "integral", f"bad integral line {lines[1]!r}")
    local = {}
    for line in lines[2:-1]:
        found = re.fullmatch(r"p=(\d+): (\w+)", line)
        expect(found is not None, f"bad local line {line!r}")
        local[int(found.group(1))] = found.group(2)
    expect(lines[-1] in ("stabilized: yes", "stabilized: no"), f"bad line {lines[-1]!r}")
    k = int(rule.group(1)) if rule.group(1) else None
    return Verdict(integral, local, lines[-1].endswith("yes"), k, rule.group(2))


def read_verdict_json(doc: dict) -> Verdict:
    v = doc["verdict"]
    rule = v["rule"] or {}
    local = {int(p): x for p, x in v["local"].items()}
    return Verdict(v["integral"], local, v["stabilized"], rule.get("k"), rule.get("scope"))


# --------------------------------------------------------------------------
# the parse subcommand


def check_parse_text(text: str, spec: Spec) -> None:
    found = re.fullmatch(r"pi1 = (\S+); b2 = (\d+); sigma-f = (trivial|nontrivial)", text)
    expect(found is not None, f"bad parse line {text!r}")
    check_pi1(*read_pi1_text(found.group(1)), spec.m, spec.moduli)
    expect(int(found.group(2)) == spec.b2, f"b2 {found.group(2)}")
    expect((found.group(3) == "trivial") == spec.spin, f"sigma-f {found.group(3)}")


def check_parse_json(doc: dict, spec: Spec) -> None:
    check_pi1(doc["free_rank"], doc["cyclic_factors"], spec.m, spec.moduli)
    check_pi1(*read_pi1_text(doc["pi1"]), spec.m, spec.moduli)
    expect(doc["b2"] == spec.b2 and doc["sigma_f_trivial"] == spec.spin, f"{doc}")


def read_json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise OracleError(f"not JSON: {exc}") from None
