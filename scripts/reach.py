"""The functions of ``src`` that only the tests reach, written to ``tests/data/reach.txt``.

    python3 scripts/reach.py

A ``sys.settrace`` line collector records the code of every gauge4 frame in
which a line runs, twice, in one interpreter:

- on the user paths: ``import gauge4, gauge4.cli``, then ``cli.run`` on every
  argv pinned in ``tests/data/golden_sweep.json`` and on the seven ``--help``
  queries whose answers ``tests/data/cli_help.txt`` pins (``--help``, then
  ``<command> --help`` for each command of ``cli.COMMANDS``), then one round
  of each workload of ``bench/workloads.py`` (seed 1, as ``bench/run.py``
  numbers its first round), built and run through the calls the benchmark
  times; the benchmark's checks of each answer are not run;
- on tier-1: the test suite, run in-process by pytest from the root of the
  checkout, as the tier-1 command runs it.

A function is reached when one of its lines runs; a lambda or comprehension
counts for the function around it, and one with no function around it for the
module-level assignment that holds it, as ``module.name`` (``value._AS_GIVEN``,
``terms._POWER``).  The script prints, one per line as ``module.qualname``,
the functions that tier-1 reaches and no user path does,
and writes the same lines to ``tests/data/reach.txt``, so a change to the list
shows as a diff.  ``bench/`` is imported and run, never changed.  Tracing makes
the suite several times slower, so a test with a clock budget may fail here;
its lines are recorded all the same.  pytest's report and exit status go to
stderr.  Only a status of 0 or 1 says the suite ran to its end, so any other
status (a module that failed to import, an interrupted run) leaves the list as
it was and is the script's own exit status.
"""

import ast
import contextlib
import functools
import io
import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "data" / "reach.txt"
SEED = 1
HEADER = ("# The functions of src that tier-1 reaches and no CLI golden argv, no --help\n"
          "# query and no bench round does, as module.qualname; written by scripts/reach.py.\n")


class Lines:
    """The code objects of gauge4 with a line that ran while collecting.  Once a
    code object is recorded, no more of its lines are traced, which keeps the
    collector cheap enough for the suite's hang guards."""

    def __init__(self):
        self.code = set()

    def _local(self, frame, event, arg):
        if event == "line":
            self.code.add(frame.f_code)
            frame.f_trace_lines = False
        return self._local

    def _global(self, frame, event, arg):
        if frame.f_code in self.code:
            return None
        return self._local if frame.f_globals.get("__name__", "").startswith("gauge4") else None

    @contextlib.contextmanager
    def collecting(self):
        previous = sys.gettrace()
        sys.settrace(self._global)
        try:
            yield self
        finally:
            sys.settrace(previous)

    def functions(self) -> set[str]:
        """module.qualname of each function reached, and module.name of each module-level
        assignment a lambda or comprehension that ran lies in; other module code is left out."""
        names = set()
        for code in self.code:
            parts = code.co_qualname.split(".")
            while parts and parts[-1].startswith("<"):  # <lambda>, <listcomp>, <locals>, ...
                parts.pop()
            if not parts and code.co_name != "<module>":
                parts = [name for first, last, name in _assignments(code.co_filename)
                         if first <= code.co_firstlineno <= last]
            if parts:
                names.add(f"{Path(code.co_filename).stem}.{'.'.join(parts)}")
        return names


@functools.cache
def _assignments(filename: str) -> list[tuple[int, int, str]]:
    """(first line, last line, name) of each module-level assignment to one name in the
    module at filename, read from its ast once."""
    tree = ast.parse(Path(filename).read_text())
    return [(node.lineno, node.end_lineno, target.id) for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name)]


def help_queries(cli) -> list[list[str]]:
    """The argv of the seven --help answers that tests/data/cli_help.txt pins."""
    return [["--help"]] + [[name, "--help"] for name in cli.COMMANDS]


def user_paths() -> set[str]:
    lines = Lines()
    with lines.collecting():
        import gauge4.cli

        sys.path.insert(0, str(ROOT / "bench"))
        import workloads

        rows = json.loads((ROOT / "tests" / "data" / "golden_sweep.json").read_text())["cli"]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in [row["argv"] for row in rows] + help_queries(gauge4.cli):
                gauge4.cli.run(list(argv))
        api = SimpleNamespace(**{name.split(".")[1]: fn for name, fn in workloads.LAYERS.items()})
        for name, workload in workloads.WORKLOADS.items():
            for op in workload.make_round(random.Random(f"{name}:{SEED}:0")):
                workloads.KINDS[op.kind][0](api, *op.args)
    return lines.functions()


def tier_one() -> tuple[set[str], int]:
    """The functions tier-1 reaches, and pytest's exit status."""
    import pytest

    lines = Lines()
    with lines.collecting(), contextlib.redirect_stdout(sys.stderr):  # stdout is the list
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT)])
    print(f"tier-1 under the collector: pytest exit status {int(status)}", file=sys.stderr)
    return lines.functions(), int(status)


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    user = user_paths()
    reached, status = tier_one()
    if status not in (0, 1):  # the suite did not run to its end, so the list would be short
        print(f"tier-1 incomplete; {OUT} left as it was", file=sys.stderr)
        sys.exit(status)
    only = sorted(reached - user)
    OUT.write_text(HEADER + "".join(f"{name}\n" for name in only))
    print("\n".join(only))
    print(f"{len(only)} functions reached by tier-1 alone; wrote {OUT}", file=sys.stderr)


if __name__ == "__main__":
    main()
