"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 perfbench/selftest.py`` (or
``python3 -m pytest perfbench/selftest.py``). They take about half a minute:
every workload runs a couple of tasks, the tracer runs once per kind of
workload, and the harness is started once in a directory without sources.
"""
from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402

LIB = run.import_library()
COUNT_METRICS = ("bytes_per_task", "rounds_per_task", "oracle_rate", "unconverged_rate",
                 "fail_rate")


def _measure(name, seed, tasks, passes=1, recorder=None):
    workload = run.WORKLOADS[name]
    run.OUT_DIR.mkdir(exist_ok=True)
    cache = run.OUT_DIR / f"selftest-{name}.bin"
    return run.measure(LIB, workload, seed, 0.0, cache, passes=passes, tasks=tasks,
                       recorder=recorder)


def _counts(result):
    metrics = run.end_to_end(result)
    return {name: metrics[name][0] for name in COUNT_METRICS}


def test_same_seed_repeats_counts_and_other_seed_runs_clean():
    for name in run.WORKLOADS:
        first = _measure(name, 11, 2)
        again = _measure(name, 11, 2)
        assert _counts(first) == _counts(again), name
        other = _measure(name, 12, 2)
        assert other.failed == 0, (name, other.first_error)
        assert _counts(other)["fail_rate"] == 0.0
        assert [o.seed for o in other.outcomes] != [o.seed for o in first.outcomes]


def test_tail_rank_small_and_large_counts():
    assert run.tail_rank(1) == 1
    assert run.tail_rank(2) == 2
    assert run.tail_rank(3) == 2
    assert run.tail_rank(16) == 9
    assert run.tail_rank(20) == 11
    # From 21 tasks on, exactly ten tasks lie beyond the tail.
    for count in (21, 60, 150, 1000):
        assert count - run.tail_rank(count) == 10
    for count in range(1, 400):
        rank = run.tail_rank(count)
        assert count // 2 + 1 <= rank <= count
    try:
        run.tail_rank(0)
    except ValueError:
        pass
    else:
        raise AssertionError("tail_rank(0) must raise")


def test_traced_runs_reconcile_and_restore_the_library():
    for name in ("wide_fit", "acesdar_path"):
        recorder = spans.SpanRecorder()
        recorder.install(LIB)
        patched = list(recorder._patched)
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
        try:
            result = _measure(name, 11, 1, recorder=recorder)
        finally:
            recorder.uninstall()
        assert all(getattr(owner, attr) is original for owner, attr, original in patched)
        assert result.failed == 0, result.first_error
        summary = spans.summarize(recorder)
        assert spans.reconcile(summary) == []
        metrics = spans.layer_metrics(summary, 1)
        assert metrics["cluster.anchor_rounds"][0] > 0
        assert metrics["sdar.outer_iterations"][0] > 0
        if name == "acesdar_path":
            assert metrics["tuning.fits_per_path"][0] == 31
            assert metrics["tuning.path_points"][0] == 16


def test_reconcile_reports_a_mismatch():
    recorder = spans.SpanRecorder()
    recorder.install(LIB)
    try:
        _measure("tall_fit", 11, 1, recorder=recorder)
    finally:
        recorder.uninstall()
    summary = spans.summarize(recorder)
    summary["rounds"] += 1
    problems = spans.reconcile(summary)
    assert len(problems) == 1 and "surrogate_rounds" in problems[0]


def test_fails_without_sources():
    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.REPO_ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "tall_fit", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for test_name, test in list(globals().items()):
        if test_name.startswith("test_") and callable(test):
            test()
            print(f"ok {test_name}")
