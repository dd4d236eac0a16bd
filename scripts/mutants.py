"""One-line mutants of ``src`` and the tier-1 tests each one fails, written to
``tests/data/kills.json``.

    python3 scripts/mutants.py

For each row of ``MUTANTS``, one after another, the script extracts HEAD's
commit into a temporary directory with ``bench_pairs.checkout``, as every script
here extracts a commit, replaces the row's old text in its file with the new
one, and runs the whole tier-1 command there, one pytest process at a time, for
at most ``TIMEOUT_S`` seconds.  A mutant's kill set is the sorted ids of the
tests that fail or error, ``"timeout"``, or pytest's exit status if it stopped
for another reason (a module that fails to import while pytest loads
``conftest.py``, say).  The anchor test, ``tests/test_mutants.py``, checks the
unmutated table, so it fails on every mutated copy and is left out of each kill
set.  A row with a fifth field is an equivalent mutant: the same answers, for
the reason that field gives.  The file records the commit and the Python
version; the committed files are tested, so commit before running.  About 20 s a
mutant on a 2-core machine.
"""

import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "data" / "kills.json"
COMMAND = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider", "-rfE", "--tb=no"]
TIMEOUT_S = 240
ANCHOR = "tests/test_mutants.py"

_SLOWER = "gives the same answers more slowly"

#: (name, file under src/gauge4, old text, new text[, why it is equivalent])
MUTANTS = [
    # classifier: one per law of the box, then the rows and scopes
    ("law1_whole_gcd", "classifier.py", "YES if gcd(k, t) == gcd(k, s) else NO",
     "YES if gcd(row.k, t) == gcd(row.k, s) else NO"),
    ("law2_part_of_2", "classifier.py", "k *= p", "k *= 2"),
    ("law3_no_abs", "classifier.py",
     't, s = abs(integer(t, "bundle class t")), abs(integer(s, "bundle class s"))',
     't, s = integer(t, "bundle class t"), integer(s, "bundle class s")'),
    ("law4_integral_yes_unknown_locals", "classifier.py", "dict.fromkeys(primes, YES)",
     "dict.fromkeys(primes, UNKNOWN)"),
    ("law5_manifold_row_k", "classifier.py", '("SU", 2, (MANIFOLD, False)): ClassRule(6,',
     '("SU", 2, (MANIFOLD, False)): ClassRule(12,'),
    ("base_row_k", "classifier.py", '("SU", 2, S4): ClassRule(12,',
     '("SU", 2, S4): ClassRule(24,'),
    ("bound_strict", "classifier.py", "self.odd_prime_bound <= (p - 1) ** 2 + 1",
     "self.odd_prime_bound < (p - 1) ** 2 + 1"),
    ("odd_scope_at_2", "classifier.py", "if p == 2:", "if p == 3:"),
    ("sp_bound_n", "classifier.py", "ODD_PRIMES, 2 * n)", "ODD_PRIMES, n)"),
    ("stabilized_not_trivial", "classifier.py", "classify_pi1(spec.pi1) == Pi1Kind.MIXED",
     "classify_pi1(spec.pi1) != Pi1Kind.TRIVIAL"),
    # arith: one per base of Jaeschke's row, then trial division and powers
    ("mr_without_2", "arith.py", "(2, 13, 23, 1_662_803)", "(13, 23, 1_662_803)"),
    ("mr_without_13", "arith.py", "(2, 13, 23, 1_662_803)", "(2, 23, 1_662_803)"),
    ("mr_without_23", "arith.py", "(2, 13, 23, 1_662_803)", "(2, 13, 1_662_803)"),
    ("mr_without_1662803", "arith.py", "(2, 13, 23, 1_662_803)", "(2, 13, 23)"),
    ("trial_even_steps", "arith.py", "d += 1 if d == 2 else 2", "d += 2"),
    ("prime_power_adds", "arith.py", "(pr[0], pr[1] * k)", "(pr[0], pr[1] + k)"),
    # value
    ("digits_any_script", "value.py", "return text.isascii() and text.isdigit()",
     "return text.isdigit()"),
    ("integer_takes_bool", "value.py", "if type(value) is not int:",
     "if not isinstance(value, int):"),
    ("decimal_plus_only", "value.py", 'if run[:1] in "+-" else run', 'if run[:1] in "+" else run'),
    ("as_given_swaps_two", "value.py", "lambda v0, v1: s0(value := new(c), v0) or s1(value, v1)",
     "lambda v0, v1: s0(value := new(c), v1) or s1(value, v0)"),
    # manifold
    ("mixed_read_as_cyclic", "manifold.py", "if not has_free and n_cyclic == 1:",
     "if n_cyclic == 1:"),
    ("even_prime_accepted", "manifold.py", "cyclic_factors[0][0] == 2:",
     "cyclic_factors[0][0] == 4:"),
    ("even_prime_read_last", "manifold.py", "cyclic_factors[0][0] == 2:",
     "cyclic_factors[-1][0] == 2:"),
    ("pi1_strip_left_only", "manifold.py", "q = q.strip()", "q = q.lstrip()"),
    ("connected_sum_or", "manifold.py", "a.sigma_f_trivial and b.sigma_f_trivial",
     "a.sigma_f_trivial or b.sigma_f_trivial"),
    ("stabilize_adds_d", "manifold.py", "spec.b2 + 2 * d,", "spec.b2 + d,"),
    # terms
    ("loop_order_dim_2", "terms.py", "return summand.dim - 1, summand.modulus",
     "return summand.dim - 2, summand.modulus"),
    ("moore_modulus_down", "terms.py", "(lambda m: (-m.dim, 1, m.modulus)",
     "(lambda m: (-m.dim, 1, -m.modulus)"),
    ("merge_keeps_zero", "terms.py", "        elif count:\n", "        else:\n"),
    ("copies_limit_plus_one", "terms.py", "if total > MAX_COPIES:", "if total > MAX_COPIES + 1:"),
    ("symbolic_one_copy", "terms.py", 'f"{n}+2d" if n else "2d"', 'f"{n}+2d" if n > 1 else "2d"'),
    ("symbolic_fold_counts_n", "terms.py", "total += 1 - n", "total += not n"),
    ("repeat_before_copy_check", "terms.py",
     "    if total > MAX_COPIES:\n        raise ValueError(f\"the answer writes out {total} copies, "
     "more than the limit of 10**6\")\n    texts, factors = [], []\n    for term, count in blocks:\n",
     "    texts, factors = [], []\n    for term, count in blocks:\n        if total > MAX_COPIES "
     "and texts:\n            raise ValueError(f\"the answer writes out {total} copies, more than "
     "the limit of 10**6\")\n"),
    ("s5_in_loop_domain", "terms.py", "cls is Sphere and 2 <= summand.dim <= 4",
     "cls is Sphere and 2 <= summand.dim <= 5"),
    # decomposer
    ("assemble_skips_t", "decomposer.py",
     'integer(t, "bundle class t", error=DecompositionError)\n    m = spec', "m = spec"),
    ("gauge_head_d", "decomposer.py", 'power = "{2d}" if symbolic else 2 * stab',
     'power = "{d}" if symbolic else stab'),
    ("cp2_keeps_a_2_cell", "decomposer.py", "base, n3 = SCP2, n3 - 1", "base, n3 = SCP2, n3"),
    ("stabilization_adds_d", "decomposer.py", "spec.b2 + 2 * stabilization",
     "spec.b2 + stabilization"),
    ("free_one_s2", "decomposer.py", "blocks.append((SPHERE[2], m))",
     "blocks.append((SPHERE[2], 1))"),
    ("moore_blocks_swapped", "decomposer.py", "upper, lower = [(Moore(4, q)",
     "lower, upper = [(Moore(4, q)"),
    ("runs_by_factor", "decomposer.py", "runs = sorted([(p**r,", "runs = ([(p**r,"),
    # homology: the SNF routes, chain complexes and closed forms
    ("square_sent_modulo_d", "homology.py", "if rows and rank == len(rows) == len(rows[0]):",
     "if rows and rank == len(rows) == len(rows[0]) == 0:",
     f"modulo D, which d1 ... dn divide, a square nonsingular rest {_SLOWER}"),
    ("head_modulo_d", "homology.py", "head = _diagonalize(rows, g, rank - 1)",
     "head = _diagonalize(rows, det, rank - 1)",
     f"d1 ... d(n-1) divide D as they divide g, so eliminating modulo D {_SLOWER}"),
    ("modulo_2d", "homology.py", "return tuple(_diagonalize(rows, det, rank))",
     "return tuple(_diagonalize(rows, 2 * det if rows else det, rank))",
     f"every di divides D, so gcd(di, 2D) = di and eliminating modulo 2D {_SLOWER}"),
    ("pad_with_1", "homology.py", "return factors + [m] * (count - t)",
     "return factors + [1] * (count - t)"),
    ("pivot_without_gcd", "homology.py", "g = top[t] = gcd(p, m)", "g = top[t] = abs(p)"),
    ("one_line_first_entry", "homology.py", "return (gcd(*rows[0]),)", "return (abs(rows[0][0]),)"),
    ("dd_skips_a_row", "homology.py", "for row in rows[k] for col in cols",
     "for row in rows[k][1:] for col in cols"),
    ("trailing_gcd_one_row", "homology.py", "trail = gcd(*block[0], *block[1])",
     "trail = gcd(*block[0])"),
    ("exponents_ascending", "homology.py", "exponents.sort(reverse=True)", "exponents.sort()",
     "only equality and hashing read the invariant factors, and sorting every base's "
     "exponents up writes them in reverse for both groups compared"),
    ("suspend_keeps_rank0", "homology.py", "[(rank0 - 1, torsion0)]", "[(rank0, torsion0)]"),
    ("h2_without_torsion", "homology.py", "(spec.b2, torsion)", "(spec.b2, ())"),
    ("scp2_top_in_4", "homology.py", "ranks[5] += count", "ranks[4] += count"),
    ("chain_rank_once", "homology.py", "dims[k] - ranks[k] - ranks[k + 1]",
     "dims[k] - ranks[k + 1]"),
    ("chain_keeps_unit_factors", "homology.py", "torsion[k][torsion[k].count(1):])",
     "torsion[k])"),
    ("chain_checks_again", "homology.py", "GradedAbelianGroup._as_given(tuple(groups + [(0, ())]",
     "GradedAbelianGroup(tuple(groups + [(0, ())]"),
    ("matrix_trailing_comma", "homology.py", 'after.strip() != ("," if i < len(parts) else "")',
     'after.strip() not in (",", "")'),
    # cli
    ("json_primes_as_ints", "cli.py", "sorted(v.local, key=str)", "sorted(v.local)"),
    ("every_error_exits_1", "cli.py", "return 1 if isinstance(exc, UsageError) else 2",
     "return 1"),
    ("flags_never_conflict", "cli.py", "spin is not None and trivial != spin",
     "spin is not None and trivial == spin"),
    ("usage_wraps_at_80", "cli.py", "len(lines[-1]) + 1 + len(part) > 78",
     "len(lines[-1]) + 1 + len(part) > 80"),
    # cli: the top level, one more row of the reader table
    ("top_dash_dash_anywhere_a_word", "cli.py", 'token == "--" and (command or i == n)',
     'token == "--" and command'),
    ("dash_dash_matched_as_a_flag", "cli.py", 'token[:1] == "-" and token not in ("-", "--")',
     'token[:1] == "-" and token != "-"'),
    ("empty_word_names_the_top", "cli.py", "if token not in COMMANDS:",
     "if token not in _READERS:"),
    ("subcommand_drops_extras", "cli.py", "return _read(token, argv, i, extras)",
     "return _read(token, argv, i, [])"),
    ("top_requires_no_command", "cli.py", '{"command": None}, [("command", "command")])',
     '{"command": None}, [])'),
    ("help_loses_to_extras", "cli.py", "if stop is _HELP:", "if stop is _HELP and not extras:"),
    ("extras_before_required", "cli.py", "if missing:", "if missing and not extras:"),
    ("no_subcommand_first_call", "cli.py", "if argv and argv[0] in COMMANDS else",
     "if argv and argv[0] in () else",
     "the top level's row hands a first word that names a subcommand to that subcommand's "
     f"row, with no extras, so reading it there {_SLOWER}"),
]


def failing(tree: Path) -> list[str] | str:
    """The sorted ids of the tier-1 tests that fail or error in tree, "timeout", or
    pytest's exit status when it ends for any reason but failing tests."""
    try:
        done = subprocess.run(COMMAND, cwd=tree, env={**os.environ, "PYTHONPATH": "src"},
                              capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    if done.returncode not in (0, 1):  # pytest stopped before running every test
        return f"pytest exit status {done.returncode}"
    ids = {line.split(" ", 1)[1].partition(" - ")[0] for line in done.stdout.splitlines()
           if line.startswith(("FAILED ", "ERROR "))}
    return sorted(i for i in ids if not i.startswith(ANCHOR))


def main() -> None:
    import bench_pairs  # beside this script, which tests load by path

    commit = bench_pairs.git("rev-parse", "HEAD").decode().strip()
    kills = {}
    for name, file, old, new, *_ in MUTANTS:
        start = time.monotonic()
        with tempfile.TemporaryDirectory() as tmp:
            bench_pairs.checkout(commit, Path(tmp))
            path = Path(tmp) / "src" / "gauge4" / file
            text = path.read_text()
            if text.count(old) != 1:
                sys.exit(f"{name}: the old text occurs {text.count(old)} times in {file}")
            path.write_text(text.replace(old, new))
            kills[name] = failing(Path(tmp))
        killed = kills[name] if kills[name] == "timeout" else len(kills[name])
        print(f"{name}: {killed} ({time.monotonic() - start:.0f} s)", flush=True)
    OUT.write_text(json.dumps({"commit": commit, "python": platform.python_version(),
                               "kills": kills}, indent=1) + "\n")


if __name__ == "__main__":
    main()
