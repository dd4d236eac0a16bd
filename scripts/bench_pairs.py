"""Paired benchmark runs of two commits, summarized as a BENCH_*.json file.

    python3 scripts/bench_pairs.py --parent REV --out BENCH_9.json \\
        scale=81-90 census=91-95 --traced scale=75-77

The two sides are the committed trees of REV and of HEAD, each written by
``git archive`` into a fresh temporary directory, as the benchmark is
meant to be run.  The archive is extracted with tarfile's ``"data"``
filter, which refuses absolute paths, links out of the tree and device
files (the default from Python 3.14 on).  Then HEAD's ``bench/`` and
``BENCHMARK.json`` replace the parent's, so both sides run the same
benchmark on their own ``src``, and the file records that ``bench`` tree
as ``bench_tree`` and that ``BENCHMARK.json`` blob as ``bench_spec``
beside each side's ``src_tree``.  For each seed of a ``WORKLOAD=SEEDS``
argument the two sides run the command of BENCHMARK.json with ``--workload
W --seed S --seconds <run_seconds> --trace 0`` one after the other, the
side that goes first alternating from seed to seed.  For every end-to-end
metric the file gives each side's runs, median and quartiles, the pairs
the change won, the median gap (the change's median minus the parent's)
and whether it is ``resolved``: wider than the parent's interquartile
range, so more than the spread of unchanged code, and a ``gain`` when it
is resolved in the better direction and the change won at least nine
tenths of the pairs (a tie wins for neither side).  One stderr line per
metric says the same.  ``--traced WORKLOAD=SEEDS`` adds ``--trace 1`` runs,
one per side and seed, alternating in the same way; for every per-layer
metric the file gives each side's runs and their median, since one traced
run carries run-to-run noise as large as a change.  Seeds are ``A-B``
ranges or comma lists; a pair argument needs at least 2 seeds and a
``--traced`` one at least 1, checked before any checkout or run.  A run
that is not correct, or a pair whose sides differ in ``attempted`` or
``failed``, ends the script with exit status 1 and no file written.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def checkout(rev: str, into: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(into, filter="data")


def same_bench(dirs: dict[str, Path]) -> None:
    """Replace the parent side's ``bench/`` and ``BENCHMARK.json`` with the change
    side's, so a file only in the parent's ``bench/`` is gone too."""
    shutil.rmtree(dirs["parent"] / "bench")
    shutil.copytree(dirs["change"] / "bench", dirs["parent"] / "bench")
    shutil.copyfile(dirs["change"] / "BENCHMARK.json", dirs["parent"] / "BENCHMARK.json")


def seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def workload_seeds(least: int, what: str):
    """An argparse type for ``WORKLOAD=SEEDS`` that needs at least ``least`` seeds,
    so an argument that cannot be summarised fails before any checkout or run."""

    def parse(text: str) -> tuple[str, list[int]]:
        try:
            workload, seed_text = text.split("=")
            seed_list = seeds(seed_text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected WORKLOAD=SEEDS, got {text!r}") from None
        if len(seed_list) < least:
            raise argparse.ArgumentTypeError(
                f"{text!r}: {what} needs {least} or more seeds, got {len(seed_list)}")
        return workload, seed_list

    return parse


def argv(spec: dict, workload: str, seed: object, trace: int) -> list[str]:
    return [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]


def run(spec: dict, cwd: Path, workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(argv(spec, workload, seed, trace), cwd=cwd, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def alternating(spec: dict, dirs: dict[str, Path], workload: str, seed_list: list[int],
                trace: int) -> tuple[dict[str, list[dict]], list[str]]:
    """Each side's runs of one workload, one per seed, and the side that went first;
    exit 1 if ``bad_runs`` finds a fault in them."""
    runs = {side: [] for side in SIDES}
    first = []
    for i, seed in enumerate(seed_list):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            runs[side].append(run(spec, dirs[side], workload, seed, trace))
            ops = runs[side][-1]["metrics"]["trace.throughput_ops" if trace else "throughput_ops"]
            print(workload, seed, side, trace, ops["value"], file=sys.stderr)
    problems = bad_runs(workload, seed_list, runs)
    if problems:  # exit 1 before the results file is written
        sys.exit("no results file written:\n  " + "\n  ".join(problems))
    return runs, first


def bad_runs(workload: str, seed_list: list[int], runs: dict[str, list[dict]]) -> list[str]:
    """Why the runs of one workload cannot go into a results file: a run that is not
    correct, or a pair whose sides attempted or failed different numbers of operations
    (each seed fixes its operations, so the two sides must agree)."""
    problems = []
    for i, seed in enumerate(seed_list):
        pair = {side: runs[side][i] for side in SIDES}
        problems += [f"{workload} seed {seed} {side}: correct is {str(r['correct']).lower()}"
                     for side, r in pair.items() if r["correct"] is not True]
        problems += [f"{workload} seed {seed}: {key} differs, parent {pair['parent'][key]}, "
                     f"change {pair['change'][key]}"
                     for key in ("attempted", "failed")
                     if pair["parent"][key] != pair["change"][key]]
    return problems


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def by_metric(runs: list[dict]) -> dict[str, list[float]]:
    """Every metric of a side's traced runs, as the list of its values."""
    return {name: [r["metrics"][name]["value"] for r in runs] for name in runs[0]["metrics"]}


def paired(workload: str, metrics: list[dict], runs: dict[str, list[dict]]) -> dict:
    """Each end-to-end metric of one workload's pairs, with one stderr line per metric:
    the gap between the sides' medians, change minus parent, is ``resolved`` when it is
    wider than the parent's interquartile range, the spread of unchanged code, and a
    ``gain`` when it is that wide in the better direction and the change won at least
    nine tenths of the pairs."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        sign = 1 if metric["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        sides = {side: summary(values[side]) for side in SIDES}
        base = sides["parent"]["median"]
        gap, iqr = sides["change"]["median"] - base, sides["parent"]["q3"] - sides["parent"]["q1"]
        pairs = len(values["parent"])
        resolved = abs(gap) > iqr
        gain = sign * gap > iqr and 10 * wins >= 9 * pairs
        out[name] = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                     **sides, "change_wins": wins, "pairs": pairs,
                     "median_gap": gap, "resolved": resolved, "gain": gain}
        share = f" ({gap / base:+.1%})" if base else ""
        print(f"{workload} {name}: median gap {gap:+.4g} {metric['unit']}{share}, parent IQR "
              f"{iqr:.4g}, {'' if resolved else 'not '}resolved, change won {wins} of "
              f"{pairs}, {'' if gain else 'no '}gain", file=sys.stderr)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--out", required=True)
    # a pair's quartiles need two seeds; a traced median needs one
    parser.add_argument("--traced", action="append", default=[],
                        type=workload_seeds(1, "a traced entry"), metavar="WORKLOAD=SEEDS")
    parser.add_argument("pairs", nargs="+", type=workload_seeds(2, "a pair"),
                        metavar="WORKLOAD=SEEDS")
    args = parser.parse_args()
    revs = {"parent": args.parent, "change": "HEAD"}
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {side: Path(tmp, side) for side in SIDES}
        for side in SIDES:
            checkout(revs[side], dirs[side])
        same_bench(dirs)
        spec = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
        doc = {
            "command": " ".join(argv(spec, "W", "S", 0)),
            "src_tree": {side: git("rev-parse", f"{revs[side]}:src").decode().strip()
                         for side in SIDES},
            "bench_tree": git("rev-parse", "HEAD:bench").decode().strip(),
            "bench_spec": git("rev-parse", "HEAD:BENCHMARK.json").decode().strip(),
            "machine": {"python": platform.python_version(), "cpus": os.cpu_count()},
            "workloads": {},
            "traced": {},
        }
        for workload, seed_list in args.pairs:
            runs, first = alternating(spec, dirs, workload, seed_list, 0)
            doc["workloads"][workload] = {
                "seeds": seed_list,
                "first": first,
                "outcomes": {side: [{k: r[k] for k in ("correct", "attempted", "failed")}
                                    for r in runs[side]] for side in SIDES},
                "metrics": paired(workload, spec["end_to_end"], runs),
            }
        for workload, seed_list in args.traced:
            runs, first = alternating(spec, dirs, workload, seed_list, 1)
            doc["traced"][workload] = {"seeds": seed_list, "first": first, **{
                side: {name: {"runs": values, "median": statistics.median(values)}
                       for name, values in by_metric(runs[side]).items()}
                for side in SIDES}}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
