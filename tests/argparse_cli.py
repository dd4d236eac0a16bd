"""The argparse front end that gauge4.cli had before its table-driven reader, kept
unchanged as the reference the reader is checked against: ``build_parser`` and ``run``
as they were, with gauge4.cli's handlers and UsageError.  Only tests import it."""

import argparse
import functools
import sys

from gauge4.cli import (
    UsageError,
    _cmd_classify,
    _cmd_homology,
    _cmd_parse,
    _cmd_snf,
    _cmd_splitting,
)
from gauge4.cli import __doc__ as CLI_DOC
from gauge4.terms import SYMBOLIC
from gauge4.value import decimal, invalid_int


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


@functools.cache
def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level and subcommand parsers, built once per process (a millisecond,
    as long as a query); parse_args leaves them unchanged.  run() parses argv once."""
    parser = _Parser(prog="gauge4", description=CLI_DOC.splitlines()[0])
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
