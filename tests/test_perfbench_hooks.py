"""The benchmark's tracer (``perfbench/spans.py``) wraps library attributes by
name, so renaming or dropping one of them fails here, not only in a traced
benchmark run. The untraced run (``perfbench/run.py``) is exercised here too,
on two tasks of each workload ``BENCHMARK.json`` declares."""
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

import cesdar
import cesdar.cluster  # the tracer reads the modules off the package
import cesdar.config
import cesdar.data
import cesdar.sdar
import cesdar.tuning

REPO = Path(__file__).resolve().parent.parent
SPANS = REPO / "perfbench" / "spans.py"
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_recorder_wraps_and_restores_every_attribute():
    recorder = _load_spans().SpanRecorder()
    try:
        recorder.install(cesdar)
        patched = list(recorder._patched)
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
    finally:
        recorder.uninstall()
    wrapped = {(getattr(owner, "__name__", ""), attr) for owner, attr, _ in patched}
    assert ("SimulatedCluster", "collect_gradients") in wrapped
    assert ("cesdar.cluster", "gram_submatrix") in wrapped
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)


def test_traced_fits_reconcile_with_their_ledgers():
    # The tracer's counts (ledger rows seen through CommLedger.record, anchor
    # rounds from each broadcast to its collect, surrogate rounds from
    # spd_solve calls) must equal what the fits report themselves.
    spans = _load_spans()
    data, _ = cesdar.data.generate(cesdar.data.SyntheticSpec(n=400, p=600, s=8, seed=4))
    cfg = cesdar.config.SolverConfig(sparsity=8)
    recorder = spans.SpanRecorder()
    recorder.install(cesdar)
    try:
        with recorder.span("bench.solve"):
            cesdar.sdar.esdar_fit(data, cfg)
            cesdar.cluster.cesdar_fit(data, 4, cfg)
            cesdar.cluster.ecesdar_fit(data, 4, cfg)
            cesdar.tuning.acesdar_fit(
                data, cesdar.config.TuningConfig(step=2, machines=4, j_override=8))
    finally:
        recorder.uninstall()
    summary = spans.summarize(recorder)
    assert len(summary["fits"]) >= 3 + 4
    assert summary["bytes_m2w"] > 0 and summary["bytes_w2m"] > 0
    assert spans.reconcile(summary) == []


@pytest.fixture(scope="module")
def bench_run():
    """``perfbench/run.py`` as a module. It is registered before it runs, as
    its dataclasses need, and the BLAS variables it pins on import are
    restored afterwards."""
    spec = importlib.util.spec_from_file_location("perfbench_run", REPO / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    environ = dict(os.environ)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]
        os.environ.clear()
        os.environ.update(environ)


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_untraced_benchmark_tasks_pass_and_report_every_metric(bench_run, tmp_path, name):
    result = bench_run.measure(cesdar, bench_run.WORKLOADS[name], 1, 0.0, tmp_path / "c.bin",
                               passes=1, tasks=2)
    assert result.failed == 0, result.first_error
    metrics = bench_run.end_to_end(result)
    assert {m["name"] for m in BENCHMARK["end_to_end"]} <= set(metrics)
