"""scripts/bench_pairs.py writes no results file from runs that are wrong or
that do not pair, and says of each metric's gap whether it is wider than the
parent's spread: canned runs stand in for the benchmark."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {
    "command": ["python3", "bench/run.py"],
    "run_seconds": 1,
    "end_to_end": [{"name": "throughput_ops", "unit": "1/s", "better": "higher", "bound": 0.25}],
}


def canned(correct=True, attempted=100, failed=0, ops=10.0):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"throughput_ops": {"value": ops, "unit": "1/s"}}}


def runs_of(parent, change):
    return {"parent": parent, "change": change}


def test_good_runs_pass():
    runs = runs_of([canned(), canned(attempted=7)], [canned(ops=12.0), canned(attempted=7)])
    assert bench_pairs.bad_runs("cli", [3, 4], runs) == []


def test_an_incorrect_run_is_named_by_workload_seed_and_side():
    runs = runs_of([canned(), canned()], [canned(), canned(correct=False)])
    assert bench_pairs.bad_runs("census", [8, 9], runs) == ["census seed 9 change: correct is false"]


def test_sides_that_differ_in_attempted_or_failed_are_named():
    runs = runs_of([canned(attempted=100, failed=2), canned()],
                   [canned(attempted=99, failed=3), canned()])
    assert bench_pairs.bad_runs("exact", [1, 2], runs) == [
        "exact seed 1: attempted differs, parent 100, change 99",
        "exact seed 1: failed differs, parent 2, change 3",
    ]


@pytest.mark.parametrize("change", [canned(correct=False), canned(failed=1), canned(attempted=1)])
def test_main_exits_1_and_writes_no_file(tmp_path, monkeypatch, change):
    def checkout(rev, into):
        (into / "bench").mkdir(parents=True)
        (into / "BENCHMARK.json").write_text(json.dumps(SPEC))

    def run(spec, cwd, workload, seed, trace):
        return change if cwd.name == "change" and seed == 6 else canned()

    monkeypatch.setattr(bench_pairs, "checkout", checkout)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: args[-1].encode() + b"\n")
    monkeypatch.setattr(bench_pairs, "run", run)
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--parent", "HEAD~1", "--out", str(out),
                                      "cli=5-6"])
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main()
    assert "cli seed 6" in str(exc.value.code) and not out.exists()
    # the same runs with nothing wrong are written
    monkeypatch.setattr(bench_pairs, "run", lambda *args: canned())
    bench_pairs.main()
    doc = json.loads(out.read_text())
    assert doc["workloads"]["cli"]["seeds"] == [5, 6]
    # the ids of the one benchmark both sides ran: HEAD's bench/ tree and BENCHMARK.json
    assert (doc["bench_tree"], doc["bench_spec"]) == ("HEAD:bench", "HEAD:BENCHMARK.json")
    assert doc["src_tree"] == {"parent": "HEAD~1:src", "change": "HEAD:src"}


def test_both_sides_run_the_change_sides_benchmark(tmp_path):
    # After the two checkouts, the parent's bench/ and BENCHMARK.json are the change's:
    # a file only the parent's bench/ holds is gone, and a file both hold is the change's.
    dirs = {side: tmp_path / side for side in bench_pairs.SIDES}
    for side, files in (("parent", ("run.py", "only_parent.py")), ("change", ("run.py",))):
        (dirs[side] / "bench" / "sub").mkdir(parents=True)
        for name in files:
            (dirs[side] / "bench" / name).write_text(f"# {side}\n")
        (dirs[side] / "bench" / "sub" / "w.py").write_text(f"# {side}\n")
        (dirs[side] / "BENCHMARK.json").write_text(json.dumps({**SPEC, "run_seconds": side}))
        (dirs[side] / "src.py").write_text(f"# {side}\n")
    bench_pairs.same_bench(dirs)
    assert not (dirs["parent"] / "bench" / "only_parent.py").exists()
    for name in ("bench/run.py", "bench/sub/w.py", "BENCHMARK.json"):
        assert (dirs["parent"] / name).read_text() == (dirs["change"] / name).read_text(), name
    assert json.loads((dirs["parent"] / "BENCHMARK.json").read_text())["run_seconds"] == "change"
    assert (dirs["parent"] / "src.py").read_text() == "# parent\n"  # its own program


def test_a_gap_is_resolved_only_past_the_parents_interquartile_range(capsys):
    # parent runs 10..14: median 12, quartiles 11 and 13, an interquartile range of 2
    metrics = SPEC["end_to_end"] + [
        {"name": "latency_p50_us", "unit": "us", "better": "lower", "bound": 0.25}]

    def side(ops, latency):
        runs = [canned(ops=value) for value in ops]
        for r, value in zip(runs, latency):
            r["metrics"]["latency_p50_us"] = {"value": value, "unit": "us"}
        return runs

    # A gain needs the gap past the IQR in the better direction and 9 in 10 pairs won:
    # 4 of 5 is too few, 5 of 5 enough, and a tie (14.0 against 14.0) wins for neither side.
    parent = side([10.0, 11.0, 12.0, 13.0, 14.0], [10.0, 11.0, 12.0, 13.0, 14.0])
    for ops, gap, resolved, wins, gain in [
            ([13.0, 14.0, 15.0, 16.0, 9.0], 2.0, False, 4, False),  # exactly the IQR
            ([13.0, 14.5, 15.5, 16.0, 9.0], 2.5, True, 4, False),
            ([13.0, 14.5, 15.5, 16.0, 17.0], 3.5, True, 5, True),
            ([13.0, 14.5, 15.5, 16.0, 14.0], 2.5, True, 4, False)]:
        out = bench_pairs.paired("census", metrics, runs_of(parent, side(ops, [10.5] * 5)))
        assert [out["throughput_ops"][key] for key in ("median_gap", "resolved", "change_wins",
                                                       "gain")] == [gap, resolved, wins, gain]
        assert [out["latency_p50_us"][key] for key in ("median_gap", "resolved", "change_wins",
                                                       "gain")] == [-1.5, False, 4, False]
    assert capsys.readouterr().err.splitlines() == [
        "census throughput_ops: median gap +2 1/s (+16.7%), parent IQR 2, not resolved, "
        "change won 4 of 5, no gain",
        "census latency_p50_us: median gap -1.5 us (-12.5%), parent IQR 2, not resolved, "
        "change won 4 of 5, no gain",
        "census throughput_ops: median gap +2.5 1/s (+20.8%), parent IQR 2, resolved, "
        "change won 4 of 5, no gain",
        "census latency_p50_us: median gap -1.5 us (-12.5%), parent IQR 2, not resolved, "
        "change won 4 of 5, no gain",
        "census throughput_ops: median gap +3.5 1/s (+29.2%), parent IQR 2, resolved, "
        "change won 5 of 5, gain",
        "census latency_p50_us: median gap -1.5 us (-12.5%), parent IQR 2, not resolved, "
        "change won 4 of 5, no gain",
        "census throughput_ops: median gap +2.5 1/s (+20.8%), parent IQR 2, resolved, "
        "change won 4 of 5, no gain",
        "census latency_p50_us: median gap -1.5 us (-12.5%), parent IQR 2, not resolved, "
        "change won 4 of 5, no gain",
    ]
