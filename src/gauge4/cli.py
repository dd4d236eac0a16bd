"""Command-line front end.

Subcommands: decompose, suspension, homology, classify, snf, parse.
Output is deterministic (identical invocations print identical bytes);
--json swaps the text for a single-line JSON document, written here by hand
with its keys sorted, byte for byte what json.dumps(..., sort_keys=True)
writes.  Its strings (case labels, verdict words, scope names, render_pi1's
output) are from a fixed ASCII alphabet with no quote or backslash, so none
is escaped.  Errors print one
``error: ...`` line on stderr — exit 1 for flag misuse, exit 2 when the
described manifold or matrix is rejected.  A reader that closes stdout
early ends the process quietly, with exit 141.

One table, COMMANDS, holds every subcommand's flags.  It reads argv, writes the
usage and --help text and the ``error:`` line of each flag misuse, and fills the
namespace a handler reads, each as Python's standard option parser did: the same
words and order of checks, a unique prefix of a long flag, ``--flag=value``, and a
negative number as a value; only ``--flag=--`` differs, read as the value ``--``.
The top level is one more row of the reader's table, with only the help flags and
the subcommand's name, read by the same loop.  The --help text is laid out for 80
columns, whatever the terminal's width.
"""

import os
import sys
from types import SimpleNamespace

from . import decomposer, homology
from .classifier import (
    EquivalenceVerdict,
    classify,
    parse_group,
)
from .manifold import ManifoldSpec, manifold, render_pi1
from .terms import FACTOR_JSON, JSON, SYMBOLIC, join_blocks
from .value import decimal, invalid_int, past_digit_limit


class UsageError(Exception):
    """Bad flags; exits 1 (semantic rejections exit 2)."""


def _int_arg(token: str, malformed=invalid_int) -> int:
    """decimal(token), else UsageError: malformed(token), invalid_int's line by default."""
    return decimal(token, "an integer", UsageError, malformed)


def _stabilization_arg(text: str):
    if text == SYMBOLIC:
        return SYMBOLIC
    return _int_arg(text, "expected an integer or 'symbolic', got {!r}".format)


def _primes_arg(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    return tuple(_int_arg(p, lambda _: f"expected a comma-separated prime list, got {text!r}")
                 for p in text.split(","))


def _spec_from_args(args: SimpleNamespace) -> ManifoldSpec:
    trivial = None if args.sigma_f is None else args.sigma_f == "trivial"
    spin = None if args.spin is None else args.spin == "true"
    if trivial is not None and spin is not None and trivial != spin:
        raise UsageError("conflicting --sigma-f and --spin")
    return manifold(args.pi1, args.b2, sigma_f_trivial=trivial, spin=spin)


# --------------------------------------------------------------------------
# JSON helpers


def _splitting_json(dec: decomposer.Decomposition, gauge: bool) -> list[str]:
    """The parts of the --json document of a splitting, byte for byte what
    json.dumps(..., sort_keys=True) writes for it with its lists expanded.
    The keys are written in sorted order, and both lists in one terms.join_blocks
    pass over the blocks, as the text is, from the JSON and FACTOR_JSON columns of
    terms._ATOMS; the suspension's copies are the ones an error counts.  The
    parts are written in turn, never joined."""
    suspension, factors = join_blocks(dec.suspension.blocks, JSON, ", ",
                                      FACTOR_JSON if gauge else None, ", ")
    case = dec.case_used
    stabilization = f'"{SYMBOLIC}"' if dec.stabilization == SYMBOLIC else dec.stabilization
    if not gauge:
        return [f'{{"case": "{case}", "stabilization": {stabilization}, "suspension": [',
                *suspension, "]}"]
    return [f'{{"case": "{case}", "gauge": {{"base": "{dec.base}", "factors": [', *factors,
            f'], "stabilization": {stabilization}, "t": {dec.t}}}, "suspension": [',
            *suspension, "]}"]


def _verdict_json(v: EquivalenceVerdict) -> str:
    """The --json document of a verdict, keys sorted as json.dumps(..., sort_keys=True)
    sorts them: a prime's key is a string, so "11" comes before "3"."""
    rule = "null"
    if v.rule_used is not None:  # every rule row is an if-and-only-if characterization
        k, scope, bound = v.rule_used.k, v.rule_used.scope, v.rule_used.odd_prime_bound
        rule = (f'{{"iff": true, "k": {k}, "odd_prime_bound": '
                f'{"null" if bound is None else bound}, "scope": "{scope}"}}')
    local = ", ".join(f'"{p}": "{v.local[p]}"' for p in sorted(v.local, key=str))
    return (f'{{"verdict": {{"integral": "{v.integral}", "local": {{{local}}}, "rule": {rule}, '
            f'"stabilized": {"true" if v.stabilized else "false"}}}}}')


def _ints(values) -> str:
    """The JSON list of some ints."""
    return f"[{', '.join(map(str, values))}]"


# --------------------------------------------------------------------------
# command handlers (each returns the parts of the text to print, in turn)


def _cmd_splitting(args: SimpleNamespace) -> list[str]:
    dec = decomposer.decompose(_spec_from_args(args), args.t, d=args.d)
    return (_splitting_json if args.json else decomposer.splitting_parts)(dec, args.gauge)


def _cmd_homology(args: SimpleNamespace) -> list[str]:
    spec = _spec_from_args(args)
    g = homology.homology_of_manifold(spec)
    if args.suspension:
        g = homology.suspend(g)
    if args.json:
        degrees = ", ".join(f'{{"degree": {i}, "rank": {rank}, "torsion": {_ints(torsion)}}}'
                            for i, (rank, torsion) in enumerate(g.groups))
        return [f'{{"homology": [{degrees}]}}']
    return [homology.render_graded(g)]


def _render_rule_line(v: EquivalenceVerdict) -> str:
    rule = v.rule_used
    if rule is None:
        return "rule: none"
    line = f"rule: k={rule.k}, {rule.scope}"
    if rule.odd_prime_bound is not None:
        line += f", odd primes p with (p-1)^2+1 >= {rule.odd_prime_bound}"
    return line


def _cmd_classify(args: SimpleNamespace) -> list[str]:
    spec = _spec_from_args(args)
    group = parse_group(args.group)
    verdict = classify(group, spec, args.t, args.s, args.primes)
    if args.json:
        return [_verdict_json(verdict)]
    lines = [_render_rule_line(verdict), f"integral: {verdict.integral}"]
    lines += [f"p={p}: {v}" for p, v in sorted(verdict.local.items())]
    lines.append(f"stabilized: {'yes' if verdict.stabilized else 'no'}")
    return ["\n".join(lines)]


def _cmd_snf(args: SimpleNamespace) -> list[str]:
    result = homology.smith_normal_form(homology.parse_matrix(args.matrix))
    try:
        if args.json:
            return [f'{{"invariant_factors": {_ints(result.invariant_factors)}, '
                    f'"rank": {result.rank}}}']
        return [" ".join(str(d) for d in result.invariant_factors)]
    except ValueError:  # str() past Python's digit limit, so there is one
        raise ValueError(f"{past_digit_limit('an invariant factor')}, too many to print") from None


def _cmd_parse(args: SimpleNamespace) -> list[str]:
    spec = _spec_from_args(args)
    flag = "trivial" if spec.sigma_f_trivial else "nontrivial"
    if args.json:
        cyclic = ", ".join(map(_ints, spec.pi1.cyclic_factors))
        return [f'{{"b2": {spec.b2}, "cyclic_factors": [{cyclic}], '
                f'"free_rank": {spec.pi1.free_rank}, "pi1": "{render_pi1(spec.pi1)}", '
                f'"sigma_f_trivial": {"true" if spec.sigma_f_trivial else "false"}}}']
    return [f"pi1 = {render_pi1(spec.pi1)}; b2 = {spec.b2}; sigma-f = {flag}"]


# --------------------------------------------------------------------------
# the flag table, and the reader of argv it drives


def _command(text: str, flags: dict, **fixed) -> tuple[str, dict, dict]:
    """A row of COMMANDS: --json is every subcommand's last flag, so it ends every usage."""
    return text, {**flags, "--json": (None, False, False, "")}, fixed


_SPEC_FLAGS = {
    "--pi1": (str, "1", False, "fundamental group, e.g. 1, Z*Z, Z/9*Z"),
    "--b2": (_int_arg, 0, False, "second Betti number"),
    "--sigma-f": (("trivial", "nontrivial"), None, False, ""),
    "--spin": (("true", "false"), None, False, "alias for --sigma-f"),
}

#: subcommand -> (its help line, its flags, the fixed values its handler reads).  A
#: flag maps to (reader, default, required, help line): the reader converts the flag's
#: value, is the tuple of words it may be, or is None for a switch, True when given.
#: A required flag's default is None, which no reader returns.
COMMANDS = {
    "decompose": _command("split the suspension and the gauge group", {
        **_SPEC_FLAGS,
        "--t": (_int_arg, 0, False, "bundle class over the 4-cell"),
        "--d": (_stabilization_arg, SYMBOLIC, False,
                "stabilization count, or 'symbolic' (the default)"),
    }, handler=_cmd_splitting, gauge=True),
    "suspension": _command("just the suspension half", {
        **_SPEC_FLAGS, "--d": (_stabilization_arg, SYMBOLIC, False, ""),
    }, handler=_cmd_splitting, gauge=False, t=0),
    "homology": _command("integral homology of the manifold", {
        **_SPEC_FLAGS, "--suspension": (None, False, False, "homology after suspending"),
    }, handler=_cmd_homology),
    "classify": _command("are G_t and G_s homotopy equivalent?", {
        **_SPEC_FLAGS,
        "--group": (str, None, True, "SU(n), Sp(n), or G2"),
        "--t": (_int_arg, None, True, ""),
        "--s": (_int_arg, None, True, ""),
        "--primes": (_primes_arg, (), False, "comma-separated primes for local verdicts"),
    }, handler=_cmd_classify),
    "snf": _command("Smith normal form of an integer matrix", {
        "--matrix": (str, None, True, 'row-major, e.g. "[[1,0],[0,1]]"'),
    }, handler=_cmd_snf),
    "parse": _command("echo the normalized manifold description", _SPEC_FLAGS,
                      handler=_cmd_parse),
}

# A flag as the reader sees it: (its name in an error line, its namespace key, its
# reader).  -h and --help are a switch with no key; a token naming no flag has no name.
_HELP = ("-h/--help", None, None)
_UNKNOWN = (None, None, None)
_TOP = {"-h": (_HELP, None), "--help": (_HELP, None)}  # the top level's only flags


def _reader(flags: dict, fixed: dict):
    """(option string -> (flag, None), long option strings in order, the namespace
    before any flag is read, the required flags' (name, key)) of a row of COMMANDS."""
    options, defaults, required = dict(_TOP), {}, []
    for name, (read, default, needed, _) in flags.items():
        key = name[2:].replace("-", "_")
        options[name] = ((name, key, read), None)
        defaults[key] = default
        if needed:
            required.append((name, key))
    return options, [name for name in options if name[1] == "-"], {**defaults, **fixed}, required


_READERS = {name: _reader(flags, fixed) for name, (_, flags, fixed) in COMMANDS.items()}
_READERS[""] = (_TOP, ["--help"], {"command": None}, [("command", "command")])


def _negative_number(token: str) -> bool:
    """Whether token is -DIGITS or -[DIGITS].DIGITS, a last newline ignored: a value."""
    whole, dot, part = token[1:-1 if token[-1] == "\n" else None].partition(".")
    return part.isdecimal() and (not whole or whole.isdecimal()) if dot else whole.isdecimal()


def _match(options: dict, longs: list[str], token: str):
    """(flag, its "=" value or None) of a token that starts "-", is longer and names no
    flag as it is: NAME=VALUE, the one long flag it is a prefix of (one of several is
    refused), or -h run on into more.  None for a negative number or a token with a
    space, which are values, and _UNKNOWN for anything else."""
    name, eq, value = token.partition("=")
    if eq and name in options:
        return options[name][0], value
    if token[1] == "-":
        matches = [flag for flag in longs if flag.startswith(name)]
        value = value if eq else None
    else:
        name, value = token[:2], token[2:]
        matches = [name] if name in options else []
    if len(matches) > 1:
        raise UsageError(f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return options[matches[0]][0], value
    return None if " " in token or _negative_number(token) else (_UNKNOWN, None)


def _ignored(name: str, token: str, value: str | None) -> str | None:
    """The line refusing a switch's "=" value, else None; "-hh" is -h given twice."""
    if value is None:
        return None
    left = value if token[1] == "-" else value.lstrip("h")
    return f"argument {name}: ignored explicit argument {left!r}" if left or not value else None


def _read(command: str, argv: list[str], start: int, extras: list[str]):
    """The namespace of command's flags in argv[start:], or its --help text.  A token is
    looked up as it is, and only a miss is matched further.  At the top level, command
    "", the first token that is no flag names the subcommand whose row reads on, and "--"
    ends the flags only as the last token.  At the first error, or a help flag, the
    tokens after it are matched too: an ambiguous prefix anywhere before "--" is refused
    first.  Unknown tokens, with the extras read before argv[start], are refused after
    a missing required flag."""
    options, longs, values, required = _READERS[command]
    values, stop = dict(values), None
    i, n = start, len(argv)
    while i < n:
        token = argv[i]
        i += 1
        found = options.get(token)
        if found is None:
            if token == "--" and (command or i == n):  # every token after it is a value
                extras += argv[i - 1 :]
                break
            if token[:1] == "-" and token not in ("-", "--"):
                found = _match(options, longs, token)
            if found is None:
                if command:
                    extras.append(token)
                    continue
                if token not in COMMANDS:
                    choices = ", ".join(map(repr, COMMANDS))
                    raise UsageError(
                        f"argument command: invalid choice: {token!r} (choose from {choices})")
                return _read(token, argv, i, extras)
        (name, key, read), value = found
        if name is None:
            extras.append(token)
        elif read is None:
            stop = _ignored(name, token, value) or (_HELP if key is None else None)
            if stop:
                break
            values[key] = True
        else:
            if value is None:  # the next token, unless it is a flag or "--" (or argv ends)
                value = argv[i] if i < n else "--"
                if value[:1] == "-" and value != "-" and (
                        value == "--" or options.get(value) or _match(options, longs, value)):
                    stop = f"argument {name}: expected one argument"
                    break
                i += 1
            if type(read) is tuple:
                if value not in read:
                    choices = ", ".join(map(repr, read))
                    stop = f"argument {name}: invalid choice: {value!r} (choose from {choices})"
                    break
            else:
                try:
                    value = read(value)
                except UsageError as exc:
                    stop = f"argument {name}: {exc}"
                    break
            values[key] = value
    if stop is not None:  # first refuse an ambiguous prefix after it
        for token in argv[i:]:
            if token == "--":
                break
            if token[:1] == "-" and len(token) > 1 and token not in options:
                _match(options, longs, token)
        if stop is _HELP:
            return _help(command)
        raise UsageError(stop)
    missing = [name for name, key in required if values[key] is None]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def _usage(prog: str, parts: list[str]) -> str:
    """The usage line: prog and parts, wrapped at 78 columns under the first part."""
    lines = [f"usage: {prog}"]
    for part in parts:
        if len(lines[-1]) + 1 + len(part) > 78:
            lines.append(" " * (len(prog) + 8) + part)
        else:
            lines[-1] += " " + part
    return "\n".join(lines)


def _sections(sections: list[tuple[str, list[tuple[int, str, str]]]]) -> str:
    """Titled rows of (indent, invocation, help line), each help line at one column."""
    at = min(max(indent + len(shown) for _, rows in sections for indent, shown, _ in rows) + 2, 24)
    blocks = []
    for title, rows in sections:
        lines = [f"{title}:"]
        for indent, shown, text in rows:
            width = at - indent - 2
            if not text:
                lines.append(" " * indent + shown)
            else:  # no invocation with a help line is wider than its column
                lines.append(f"{' ' * indent}{shown:<{width}}  {text}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _help(command: str) -> str:
    """What --help prints for a subcommand, or for the top level when command is ""."""
    help_row = (2, "-h, --help", "show this help message and exit")
    if not command:
        choices = "{" + ",".join(COMMANDS) + "}"
        rows = [(2, choices, "")] + [(4, name, row[0]) for name, row in COMMANDS.items()]
        return (f"{_usage('gauge4', ['[-h]', choices, '...'])}\n\nCommand-line front end."
                f"\n\n{_sections([('positional arguments', rows), ('options', [help_row])])}")
    parts, rows = ["[-h]"], [help_row]
    for name, (read, _, required, text) in COMMANDS[command][1].items():
        if read is not None:
            name += " " + ("{" + ",".join(read) + "}" if type(read) is tuple
                           else name[2:].replace("-", "_").upper())
        parts.append(name if required else f"[{name}]")
        rows.append((2, name, text))
    return f"{_usage(f'gauge4 {command}', parts)}\n\n{_sections([('options', rows)])}"


def parse_argv(argv: list[str]):
    """The namespace argv's handler reads, or the --help text to print; UsageError
    for flag misuse.  A first word that names a subcommand goes straight to its row,
    as the top level's row would send it on."""
    return _read(argv[0], argv, 1, []) if argv and argv[0] in COMMANDS else _read("", argv, 0, [])


def run(argv: list[str]) -> int:
    try:
        args = parse_argv(argv)
        if type(args) is str:  # --help
            sys.stdout.write(args)
            return 0
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
