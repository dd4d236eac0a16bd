#!/usr/bin/env python3
"""Reference figure with no bound: one gauge4 process per query.

    python3 bench/spawn.py

Run from the root of a checkout.  Alternates a command-line query,
``python -m gauge4 decompose --pi1 Z/9 --b2 1 --t 2`` with ./src on the
path, and a bare ``python -c pass``, RUNS times each so that both see the
same machine, and prints the p50 and p90 wall time of each in milliseconds.
"""

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QUERY = ["-m", "gauge4", "decompose", "--pi1", "Z/9", "--b2", "1", "--t", "2"]
RUNS = 60


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times: dict[str, list[float]] = {"gauge4 query": [], "python -c pass": []}
    for _ in range(RUNS):
        for name, argv in (("gauge4 query", QUERY), ("python -c pass", ["-c", "pass"])):
            start = time.perf_counter()
            subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, check=True,
                           stdout=subprocess.DEVNULL)
            times[name].append(time.perf_counter() - start)
    for name, values in times.items():
        p90 = statistics.quantiles(values, n=10)[8]
        print(f"{name:<16} p50 {statistics.median(values) * 1e3:7.1f} ms   p90 {p90 * 1e3:7.1f} ms"
              f"   ({len(values)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
