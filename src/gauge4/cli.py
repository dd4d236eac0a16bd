"""Command-line front end.

Subcommands: decompose, suspension, homology, classify, snf, parse.
Output is deterministic (identical invocations print identical bytes);
--json swaps the text for a single-line JSON document.  Errors print one
``error: ...`` line on stderr — exit 1 for flag misuse, exit 2 when the
described manifold or matrix is rejected.  A reader that closes stdout
early ends the process quietly, with exit 141.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import decomposer, homology
from .classifier import (
    EquivalenceVerdict,
    classify,
    parse_group,
)
from .manifold import ManifoldSpec, manifold, render_pi1
from .terms import SYMBOLIC, LoopFactor, Moore, SpaceTerm, Sphere, join_blocks
from .value import decimal, invalid_int, past_digit_limit


class UsageError(Exception):
    """Bad flags; exits 1 (semantic rejections exit 2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit 2; we reserve that
        raise UsageError(message)


def _int_arg(token: str, malformed=invalid_int) -> int:
    """decimal(token), else ArgumentTypeError: malformed(token), argparse's line by default."""
    return decimal(token, "an integer", argparse.ArgumentTypeError, malformed)


def _stabilization_arg(text: str):
    if text == SYMBOLIC:
        return SYMBOLIC
    return _int_arg(text, "expected an integer or 'symbolic', got {!r}".format)


def _primes_arg(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    return tuple(_int_arg(p, lambda _: f"expected a comma-separated prime list, got {text!r}")
                 for p in text.split(","))


def _add_spec_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--pi1", default="1", help="fundamental group, e.g. 1, Z*Z, Z/9*Z")
    sub.add_argument("--b2", type=_int_arg, default=0, help="second Betti number")
    sub.add_argument("--sigma-f", choices=["trivial", "nontrivial"], dest="sigma_f")
    sub.add_argument("--spin", choices=["true", "false"], help="alias for --sigma-f")


def _spec_from_args(args: argparse.Namespace) -> ManifoldSpec:
    trivial = None if args.sigma_f is None else args.sigma_f == "trivial"
    spin = None if args.spin is None else args.spin == "true"
    if trivial is not None and spin is not None and trivial != spin:
        raise UsageError("conflicting --sigma-f and --spin")
    return manifold(args.pi1, args.b2, sigma_f_trivial=trivial, spin=spin)


@functools.cache
def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level and subcommand parsers, built once per process (a millisecond,
    as long as a query); parse_args leaves them unchanged.  run() parses argv once."""
    parser = _Parser(prog="gauge4", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("decompose", help="split the suspension and the gauge group")
    _add_spec_flags(p)
    p.add_argument("--t", type=_int_arg, default=0, help="bundle class over the 4-cell")
    p.add_argument("--d", type=_stabilization_arg, default=SYMBOLIC,
                   help="stabilization count, or 'symbolic' (the default)")
    p.set_defaults(handler=_cmd_splitting, gauge=True)

    p = subs.add_parser("suspension", help="just the suspension half")
    _add_spec_flags(p)
    p.add_argument("--d", type=_stabilization_arg, default=SYMBOLIC)
    p.set_defaults(handler=_cmd_splitting, gauge=False, t=0)

    p = subs.add_parser("homology", help="integral homology of the manifold")
    _add_spec_flags(p)
    p.add_argument("--suspension", action="store_true", help="homology after suspending")
    p.set_defaults(handler=_cmd_homology)

    p = subs.add_parser("classify", help="are G_t and G_s homotopy equivalent?")
    _add_spec_flags(p)
    p.add_argument("--group", required=True, help="SU(n), Sp(n), or G2")
    p.add_argument("--t", type=_int_arg, required=True)
    p.add_argument("--s", type=_int_arg, required=True)
    p.add_argument("--primes", type=_primes_arg, default=(),
                   help="comma-separated primes for local verdicts")
    p.set_defaults(handler=_cmd_classify)

    p = subs.add_parser("snf", help="Smith normal form of an integer matrix")
    p.add_argument("--matrix", required=True, help='row-major, e.g. "[[1,0],[0,1]]"')
    p.set_defaults(handler=_cmd_snf)

    p = subs.add_parser("parse", help="echo the normalized manifold description")
    _add_spec_flags(p)
    p.set_defaults(handler=_cmd_parse)

    for p in subs.choices.values():  # last, so it ends every usage line
        p.add_argument("--json", action="store_true")
    return parser, subs.choices


# --------------------------------------------------------------------------
# JSON helpers


def _atom_json(atom: SpaceTerm) -> str:
    """The JSON object of a summand of a splitting: S^n, P^n(q) or SCP^2."""
    if isinstance(atom, Sphere):
        return f'{{"dim": {atom.dim}, "kind": "sphere", "modulus": null}}'
    if isinstance(atom, Moore):
        return f'{{"dim": {atom.dim}, "kind": "moore", "modulus": {atom.modulus}}}'
    return '{"dim": 5, "kind": "susp_cp2", "modulus": null}'


def _factor_json(factor: LoopFactor) -> str:
    modulus = "null" if factor.modulus is None else factor.modulus
    return f'{{"loop_order": {factor.loop_order}, "modulus": {modulus}}}'


def _splitting_json(dec: decomposer.Decomposition, gauge: bool) -> list[str]:
    """The parts of the --json document of a splitting, byte for byte what
    json.dumps(..., sort_keys=True) writes for it with its lists expanded.
    The keys are written in sorted order, and each list from its blocks by
    join_blocks, the suspension first, so its copy count is the one an error
    names; the parts are written in turn, never joined.  Its scalars are written here
    too, so a splitting never loads json."""
    suspension = join_blocks([], [(_atom_json(atom), n) for atom, n in dec.blocks], ", ")
    case = dec.case_used.value
    stabilization = f'"{SYMBOLIC}"' if dec.stabilization == SYMBOLIC else dec.stabilization
    if not gauge:
        return [f'{{"case": "{case}", "stabilization": {stabilization}, "suspension": [',
                *suspension, "]}"]
    factors = join_blocks([], [(_factor_json(f), n) for f, n in dec.factors], ", ")
    return [f'{{"case": "{case}", "gauge": {{"base": "{dec.base}", "factors": [', *factors,
            f'], "stabilization": {stabilization}, "t": {dec.t}}}, "suspension": [',
            *suspension, "]}"]


def _verdict_json(v: EquivalenceVerdict) -> dict:
    rule = None
    if v.rule_used is not None:
        rule = {
            "k": v.rule_used.k,
            "scope": v.rule_used.scope,
            "odd_prime_bound": v.rule_used.odd_prime_bound,
            "iff": True,  # every rule row is an if-and-only-if characterization
        }
    return {
        "integral": v.integral,
        "local": {str(p): verdict for p, verdict in sorted(v.local.items())},
        "rule": rule,
        "stabilized": v.stabilized,
    }


def _dump(obj) -> str:
    import json  # here, not at the top: a text query or a splitting never loads it

    return json.dumps(obj, sort_keys=True)


# --------------------------------------------------------------------------
# command handlers (each returns the parts of the text to print, in turn)


def _cmd_splitting(args: argparse.Namespace) -> list[str]:
    dec = decomposer.decompose(_spec_from_args(args), args.t, d=args.d)
    return (_splitting_json if args.json else decomposer.splitting_parts)(dec, args.gauge)


def _cmd_homology(args: argparse.Namespace) -> list[str]:
    spec = _spec_from_args(args)
    g = homology.homology_of_manifold(spec)
    if args.suspension:
        g = homology.suspend(g)
    if args.json:
        return [_dump(
            {
                "homology": [
                    {"degree": i, "rank": rank, "torsion": list(torsion)}
                    for i, (rank, torsion) in enumerate(g.groups)
                ]
            }
        )]
    return [homology.render_graded(g)]


def _render_rule_line(v: EquivalenceVerdict) -> str:
    rule = v.rule_used
    if rule is None:
        return "rule: none"
    line = f"rule: k={rule.k}, {rule.scope}"
    if rule.odd_prime_bound is not None:
        line += f", odd primes p with (p-1)^2+1 >= {rule.odd_prime_bound}"
    return line


def _cmd_classify(args: argparse.Namespace) -> list[str]:
    spec = _spec_from_args(args)
    group = parse_group(args.group)
    verdict = classify(group, spec, args.t, args.s, args.primes)
    if args.json:
        return [_dump({"verdict": _verdict_json(verdict)})]
    lines = [_render_rule_line(verdict), f"integral: {verdict.integral}"]
    lines += [f"p={p}: {v}" for p, v in sorted(verdict.local.items())]
    lines.append(f"stabilized: {'yes' if verdict.stabilized else 'no'}")
    return ["\n".join(lines)]


def _cmd_snf(args: argparse.Namespace) -> list[str]:
    result = homology.smith_normal_form(homology.parse_matrix(args.matrix))
    try:
        if args.json:
            return [_dump(
                {"invariant_factors": list(result.invariant_factors), "rank": result.rank}
            )]
        return [" ".join(str(d) for d in result.invariant_factors)]
    except ValueError:  # str() past Python's digit limit, so there is one
        raise ValueError(f"{past_digit_limit('an invariant factor')}, too many to print") from None


def _cmd_parse(args: argparse.Namespace) -> list[str]:
    spec = _spec_from_args(args)
    flag = "trivial" if spec.sigma_f_trivial else "nontrivial"
    if args.json:
        return [_dump(
            {
                "pi1": render_pi1(spec.pi1),
                "free_rank": spec.pi1.free_rank,
                "cyclic_factors": [list(f) for f in spec.pi1.cyclic_factors],
                "b2": spec.b2,
                "sigma_f_trivial": spec.sigma_f_trivial,
            }
        )]
    return [f"pi1 = {render_pi1(spec.pi1)}; b2 = {spec.b2}; sigma-f = {flag}"]


def run(argv: list[str]) -> int:
    parser, commands = build_parser()
    try:
        if argv and argv[0] in commands:  # else help, or a missing or unknown command
            parser, argv = commands[argv[0]], argv[1:]
        args = parser.parse_args(argv)
        out = args.handler(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, UsageError) else 2
    sys.stdout.writelines(out)  # in turn: a long answer is never joined
    print()
    return 0


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a reader that has gone is met here, not at exit
    except BrokenPipeError:  # the signal module docs' recipe: exit flushes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE, as a shell reports a process that signal ends
    sys.exit(code)
