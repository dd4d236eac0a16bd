"""Start-up cost of two commits, with and without ``site``, in fresh interpreters.

    python3 scripts/startup.py --parent REV [--count N]

The two sides are the committed trees of REV and of HEAD, each written by
``bench_pairs.checkout`` into a fresh temporary directory, with its bytecode
cache written by ``compileall``, as an installed package has it.  Each of N
rounds runs, for each flag (none, then ``-S``) and each command below, one
fresh interpreter per side, the side that goes first alternating from round to
round:

- ``pass``: the wall time of ``python [-S] -c pass``, the bare interpreter;
- ``import``: ``import gauge4, gauge4.cli``, timed inside the interpreter;
- ``query``: the wall time of ``python [-S] -m gauge4 decompose --pi1 Z*Z/3
  --b2 2``.

It prints each side's median in milliseconds, one line per flag and command,
and, per flag, the query's excess over the bare interpreter (the difference of
their medians).  Without ``-S`` a ``.pth`` file in site-packages may load
modules before any program runs, which hides what gauge4 loads itself; so a
start-up claim states both flags.
"""

from __future__ import annotations

import argparse
import compileall
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import bench_pairs

SIDES = bench_pairs.SIDES
FLAGS = ("", "-S")
IMPORT = ("import sys, time; t = time.perf_counter(); import gauge4, gauge4.cli; "
          "print(time.perf_counter() - t)")
COMMANDS = {
    "pass": ["-c", "pass"],
    "import": ["-c", IMPORT],
    "query": ["-m", "gauge4", "decompose", "--pi1", "Z*Z/3", "--b2", "2"],
}


def seconds(tree: Path, flag: str, command: str) -> float:
    """One fresh interpreter's time for command in tree: wall time, or for ``import`` the
    time the interpreter measured itself."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, *([flag] if flag else []), *COMMANDS[command]]
    start = time.perf_counter()
    out = subprocess.run(argv, cwd=tree, env=env, check=True, capture_output=True,
                         text=True).stdout
    wall = time.perf_counter() - start
    return float(out) if command == "import" else wall


def measure(dirs: dict[str, Path], count: int) -> dict[tuple[str, str, str], list[float]]:
    """(side, flag, command) -> the seconds of its count fresh interpreters, alternated."""
    times = {(side, flag, command): [] for side in SIDES for flag in FLAGS for command in COMMANDS}
    for i in range(count):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for flag in FLAGS:
            for command in COMMANDS:
                for side in order:
                    times[side, flag, command].append(seconds(dirs[side], flag, command))
    return times


def report(times: dict[tuple[str, str, str], list[float]], count: int) -> list[str]:
    """The lines main prints: each side's median in ms by flag and command, the change
    between them, and per flag the query's excess over the bare interpreter."""
    ms = {key: statistics.median(values) * 1e3 for key, values in times.items()}
    lines = [f"medians of {count} alternating fresh interpreters per side, in ms",
             f"{'flag':<5} {'command':<16} {'parent':>8} {'change':>8} {'change %':>9}"]
    for flag in FLAGS:
        rows = [(command, *(ms[side, flag, command] for side in SIDES)) for command in COMMANDS]
        rows.append(("query - pass", *(ms[side, flag, "query"] - ms[side, flag, "pass"]
                                       for side in SIDES)))
        for name, parent, change in rows:
            share = f"{(change - parent) / parent:+.1%}" if parent > 0 else "-"
            lines.append(f"{flag or 'site':<5} {name:<16} {parent:8.2f} {change:8.2f} {share:>9}")
    return lines


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--count", type=int, default=20, help="rounds (default 20)")
    args = parser.parse_args(argv)
    if args.count < 1:
        parser.error("--count must be at least 1")
    revs = {"parent": args.parent, "change": "HEAD"}
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {side: Path(tmp, side) for side in SIDES}
        for side in SIDES:
            bench_pairs.checkout(revs[side], dirs[side])
            compileall.compile_dir(dirs[side] / "src", quiet=1)
        times = measure(dirs, args.count)
    print("\n".join(report(times, args.count)))


if __name__ == "__main__":
    main()
