"""The benchmark's tracer finds every function it times in the program.

``benchmarks/spans.py`` wraps each target at the module attribute its caller
looks it up by, and a target it cannot find is reported absent rather than
raising.  A traced benchmark run then prints ``absent: ...`` and drops that
layer's metrics from its result, so a rename in ``src/`` silently breaks the
benchmark.  This test makes such a rename fail here instead.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    spans = _load_spans()
    with spans.Tracer() as tracer:
        assert tracer.absent == []
