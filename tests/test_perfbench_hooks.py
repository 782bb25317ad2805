"""The benchmark's tracer (``perfbench/spans.py``) wraps library attributes by
name, so renaming or dropping one of them fails here, not only in a traced
benchmark run."""
import importlib.util
from pathlib import Path

import cesdar
import cesdar.cluster  # noqa: F401 (the tracer reads the modules off the package)
import cesdar.data  # noqa: F401
import cesdar.sdar  # noqa: F401
import cesdar.tuning  # noqa: F401

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
