#!/usr/bin/env python3
"""Benchmark for gauge4, end to end and layer by layer.

Run from the root of a checkout; the program is imported from ./src:

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                # all four workloads, one process each
    python3 bench/run.py --trace 1      # per-layer figures and tracing overhead

Each workload runs closed-loop in this one process: a single caller on a
single thread calls gauge4's public functions on seeded inputs, one
operation after another, and checks every output with the oracles in
oracles.py.  --seconds sets a fixed number of whole rounds, about as many
as take that long at the reference speed, so every run of a workload
attempts the same operations.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  See README.md in this
directory for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from bisect import bisect
from collections import Counter, defaultdict
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: The workloads' names, known before the program is imported.
WORKLOADS = ("census", "cli", "scale", "exact")
#: Fresh interpreters timed for set-up; the median is reported.
SETUP_SAMPLES = 21
WARMUP_S = 0.5
#: Seconds the reference kernel takes at the reference speed, and how often
#: it is timed during a run.
REFERENCE_S = 0.001
SPEED_EVERY_S = 0.01


class Deadline(BaseException):
    """An operation ran out of CPU time.

    Derived from BaseException so that no ``except Exception`` inside the
    program can swallow it.
    """


def _expire(signum, frame):
    raise Deadline


def timed_call(fn, args, deadline_s: float):
    """(seconds, result, error) of one call, stopped after deadline_s of CPU time.

    The deadline counts this process's CPU time, so a stall caused by other
    processes on the machine cannot turn a finished operation into a failure.
    """
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_PROF, deadline_s)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
        return time.perf_counter() - start, result, None
    except Deadline:
        return time.perf_counter() - start, None, "deadline"
    except Exception as exc:
        return time.perf_counter() - start, None, type(exc).__name__


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: int) -> None:
        self.key, self.value = key, value


def reference_kernel():
    """Fixed interpreter work of about a millisecond, of the kinds the
    program does: calls, small objects, dicts, tuples, sorting, formatting."""
    table: dict[str, list] = {}
    for i in range(700):
        q, r = divmod(i * 7919, 61)
        cell = _Cell(f"k{r}", q)
        table.setdefault(cell.key, []).append(cell)
    return sorted((len(cells), key, max(c.value for c in cells)) for key, cells in table.items())


class Speed:
    """How fast this machine runs the interpreter, moment by moment.

    A core shared with other tenants speeds up and slows down by up to a
    factor of two over minutes, which would swamp any change in the
    program.  The reference kernel is timed every SPEED_EVERY_S between
    operations; an operation's time is then multiplied by REFERENCE_S over
    the mean of the kernel timings just before and just after it, giving
    its seconds at a fixed reference speed.  The speed changes within tens
    of milliseconds, so the nearest timings track it better than a median
    over a wider window, which let the 90th percentile of `cli` spread
    several times as far between stretches of the same run.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        # The first call refills the caches the last operation evicted, so
        # that the timed one measures the machine, not the workload's wake.
        reference_kernel()
        start = time.perf_counter()
        reference_kernel()
        self.at.append(start)
        self.took.append(time.perf_counter() - start)

    def sample_if_due(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= SPEED_EVERY_S:
            self.sample()

    def scale(self, at: float) -> float:
        i = bisect(self.at, at)
        return REFERENCE_S / statistics.fmean(self.took[max(0, i - 1):i + 1])


class Tracer:
    """Spans around each call into a layer, kept in memory until the end."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, bool]] = []
        self.op_id = 0

    def wrap(self, name: str, fn):
        spans = self.spans

        def traced(*args, **kwargs):
            start, ok = time.perf_counter(), False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                spans.append((self.op_id, name, start, time.perf_counter(), ok))

        return traced

    def rows(self):
        """(op, name, parent, start, end, self seconds, ok) for every span.

        Layer spans sit one after another inside their operation's "op"
        span, never inside each other, so a layer's self time is its
        duration and the operation's is its duration less theirs.
        """
        inner: defaultdict[int, float] = defaultdict(float)
        for op_id, name, start, end, _ in self.spans:
            if name != "op":
                inner[op_id] += end - start
        return [(op_id, name, "", start, end, end - start - inner[op_id], ok) if name == "op"
                else (op_id, name, "op", start, end, end - start, ok)
                for op_id, name, start, end, ok in sorted(self.spans, key=lambda s: s[2])]


class Tally:
    """What one stretch of rounds did: times, failures, wrong outputs, counts."""

    def __init__(self, counts) -> None:
        # Compact arrays, so that the bookkeeping barely moves peak_rss_mb.
        self.times = array("d")
        self.started = array("d")
        self.failed_s = 0.0
        self.failures: Counter = Counter()
        self.wrong: list[str] = []
        self.counts = dict.fromkeys(counts, 0)
        self.rounds = 0

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def attempted(self) -> int:
        return len(self.times) + self.failed

    def normalized(self, speed: Speed) -> list[float]:
        """Seconds of each completed operation at the reference speed."""
        return [t * speed.scale(at) for t, at in zip(self.times, self.started)]

    def throughput(self, speed: Speed) -> float:
        """Completed and verified operations per second spent in operations.

        A failed operation costs the deadline it ran into, which is CPU
        time and needs no scaling.
        """
        return len(self.times) / (sum(self.normalized(speed)) + self.failed_s)

    def raw_throughput(self) -> float:
        """The same with wall times as measured, at whatever speed the machine ran."""
        return len(self.times) / (sum(self.times) + self.failed_s)


def run_op(wl, kinds, op, api, tally: Tally, speed: Speed, tracer: Tracer | None) -> None:
    run, check = kinds[op.kind]
    speed.sample_if_due()
    if tracer is not None:
        tracer.op_id += 1
    start = time.perf_counter()
    elapsed, result, error = timed_call(run, (api, *op.args), wl.deadline_s)
    if tracer is not None:
        tracer.spans.append((tracer.op_id, "op", start, time.perf_counter(), error is None))
    if error is not None:
        tally.failed_s += wl.deadline_s
        tally.failures[(op.kind, op.fault, error)] += 1
        return
    tally.times.append(elapsed)
    tally.started.append(start)
    try:
        check(result, tally.counts, *op.args)
    except Exception as exc:  # a wrong or unreadable output: report it, keep going
        tally.wrong.append(f"{op.kind} {op.args[0]!r:.120}: {type(exc).__name__}: {exc}")


def rounds_for(wl, seconds: float) -> int:
    """The fixed number of rounds a run of `seconds` attempts.

    A fixed count, not a wall-time limit, keeps `attempted` and `failed`
    the same in every run however fast the machine or the program runs.
    """
    return max(1, round(seconds * wl.rounds_per_s))


def run_rounds(wl, kinds, seed: int, rounds: int, api, tally: Tally, speed: Speed,
               tracer=None) -> None:
    """`rounds` whole rounds, numbered on from those the tally already holds."""
    for _ in range(rounds):
        rng = random.Random(f"{wl.name}:{seed}:{tally.rounds}")
        for op in wl.make_round(rng):
            run_op(wl, kinds, op, api, tally, speed, tracer)
        tally.rounds += 1
    speed.sample()


def warm_up(wl, kinds, seed: int, api, tally: Tally, speed: Speed) -> None:
    """Run a separate round for WARMUP_S, skipping the known failures."""
    start = time.perf_counter()
    for op in wl.make_round(random.Random(f"{wl.name}:{seed}:warm-up")):
        if time.perf_counter() - start > WARMUP_S:
            break
        if not op.fault:
            run_op(wl, kinds, op, api, tally, speed, None)


def measure_setup(modules, speed: Speed) -> float:
    """Median seconds to import the program in a fresh interpreter, at the
    reference speed.

    The imports use the bytecode cache, as an installed package would,
    whatever PYTHONDONTWRITEBYTECODE says; the first import, which may have
    to write the cache, is discarded.
    """
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); t = time.perf_counter(); "
            f"import {', '.join(modules)}; print(time.perf_counter() - t)")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        speed.sample()
        at = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        if i:
            samples.append((float(proc.stdout), at))
    speed.sample()
    return statistics.median(t * speed.scale(at) for t, at in samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def latencies_us(times) -> tuple[float, float]:
    """(p50, p90) of operation times in seconds, in microseconds."""
    return statistics.median(times) * 1e6, statistics.quantiles(times, n=10)[8] * 1e6


def end_to_end(tally: Tally, speed: Speed, setup_s: float, peak_mb: float) -> dict:
    times = tally.normalized(speed)
    if len(times) < 100:
        print(f"warning: {len(times)} operations completed; the p90 has fewer than ten beyond it",
              file=sys.stderr)
    p50, p90 = latencies_us(times)
    return {
        "throughput_ops": (tally.throughput(speed), "1/s"),
        "latency_p50_us": (p50, "us"),
        "latency_p90_us": (p90, "us"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def raw_figures(tally: Tally, speed: Speed) -> dict:
    """Throughput and latencies unscaled, and the median reference kernel
    time they would be scaled by; the untraced run prints these beside its
    metrics and the traced run reports them as metrics."""
    p50, p90 = latencies_us(tally.times)
    return {
        "raw.throughput_ops": (tally.raw_throughput(), "1/s"),
        "raw.latency_p50_us": (p50, "us"),
        "raw.latency_p90_us": (p90, "us"),
        "speed.kernel_ms": (statistics.median(speed.took) * 1e3, "ms"),
    }


def per_layer(layers, units, rows, traced: Tally, plain: Tally, speed: Speed,
              setup_s: float) -> dict:
    by_layer = defaultdict(list)
    for _, name, _, start, _, own, ok in rows:
        by_layer[name].append((own * speed.scale(start), ok))
    metrics = {}
    for layer in layers:
        spans = by_layer.get(layer, [])
        done = [own for own, ok in spans if ok]
        metrics[f"{layer}.calls"] = (len(spans), "count")
        metrics[f"{layer}.total_ms"] = (sum(own for own, _ in spans) * 1e3, "ms")
        metrics[f"{layer}.p50_us"] = (statistics.median(done) * 1e6 if done else 0.0, "us")
        metrics[f"{layer}.failed"] = (len(spans) - len(done), "count")
    metrics["setup.import_ms"] = (setup_s * 1e3, "ms")
    for name, value in traced.counts.items():
        metrics[name] = (value, units[name])
    metrics["trace.throughput_ops"] = (traced.throughput(speed), "1/s")
    overhead = (plain.throughput(speed) - traced.throughput(speed)) / plain.throughput(speed) * 100
    metrics["trace.overhead_pct"] = (overhead, "%")
    metrics.update(raw_figures(plain, speed))
    return metrics


def write_trace(path: Path, rows) -> None:
    origin = min((r[3] for r in rows), default=0.0)
    OUT.mkdir(exist_ok=True)
    with path.open("w") as fh:
        fh.write("op,name,parent,start_us,end_us,self_us,ok\n")
        for op_id, name, parent, start, end, own, ok in rows:
            fh.write(f"{op_id},{name},{parent},{(start - origin) * 1e6:.1f},"
                     f"{(end - origin) * 1e6:.1f},{own * 1e6:.1f},{int(ok)}\n")


def report(name: str, args, tallies, metrics: dict, speed: Speed, raw: dict) -> None:
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    wrong = [w for t in tallies for w in t.wrong]
    rounds = sum(t.rounds for t in tallies)
    print(f"{name}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}, {rounds} rounds, "
          f"attempted {attempted}, failed {failed}, correct {str(not wrong).lower()}")
    failures = Counter()
    for t in tallies:
        failures.update(t.failures)
    for (kind, fault, error), n in sorted(failures.items()):
        print(f"  failed {kind}{' (known fault)' if fault else ''}: {error} x{n}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<42} {value:>16.6g} {unit}")
    for metric, (value, unit) in raw.items():
        print(f"  ({metric:<40} {value:>16.6g} {unit})")
    kernel = statistics.median(speed.took)
    print(f"  reference kernel: median {kernel * 1e3:.3f} ms over {len(speed.took)} timings, "
          f"so scaled times are raw times x {REFERENCE_S / kernel:.3f} on the whole")
    for line in wrong[:10]:
        print(f"wrong output: {line}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


def run_all(args) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="nominal run length, which fixes the number of rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not (SRC / "gauge4" / "__init__.py").is_file():
        print(f"error: no gauge4 sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gauge4
    import workloads

    if Path(gauge4.__file__).resolve().parent != SRC / "gauge4":
        print(f"error: imported gauge4 from {gauge4.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    kinds = workloads.KINDS
    rounds = rounds_for(wl, args.seconds)
    signal.signal(signal.SIGPROF, _expire)
    speed = Speed()
    setup_s = measure_setup(wl.setup_modules, speed)
    api = SimpleNamespace(**{n.split(".")[1]: fn for n, fn in workloads.LAYERS.items()})

    scratch = Tally(workloads.COUNTS)
    warm_up(wl, kinds, args.seed, api, scratch, speed)
    gc.collect()
    if args.trace:
        # Half the rounds untraced and half traced, the same rounds in
        # both: the drop in throughput between the two is the tracing
        # overhead.
        half = rounds_for(wl, args.seconds / 2)
        plain = Tally(workloads.COUNTS)
        plain.wrong = scratch.wrong
        run_rounds(wl, kinds, args.seed, half, api, plain, speed)
        tracer = Tracer()
        traced_api = SimpleNamespace(**{n.split(".")[1]: tracer.wrap(n, fn)
                                        for n, fn in workloads.LAYERS.items()})
        traced = Tally(workloads.COUNTS)
        run_rounds(wl, kinds, args.seed, half, traced_api, traced, speed, tracer)
        rows = tracer.rows()
        write_trace(OUT / f"trace-{wl.name}-{args.seed}.csv", rows)
        metrics = per_layer(workloads.LAYERS, workloads.COUNTS, rows, traced, plain, speed,
                            setup_s)
        tallies, raw = [plain, traced], {}
    else:
        tally = Tally(workloads.COUNTS)
        tally.wrong = scratch.wrong  # warm-up outputs are checked but not counted
        run_rounds(wl, kinds, args.seed, rounds, api, tally, speed)
        # Read before the statistics below, which allocate for themselves.
        peak_mb = peak_rss_mb()
        metrics = end_to_end(tally, speed, setup_s, peak_mb)
        tallies, raw = [tally], raw_figures(tally, speed)
    report(wl.name, args, tallies, metrics, speed, raw)
    return 0


if __name__ == "__main__":
    sys.exit(main())
