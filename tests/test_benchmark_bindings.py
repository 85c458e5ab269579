"""The benchmark's tracer finds every function it times in the program.

``benchmarks/spans.py`` wraps each target at the module attribute its caller
looks it up by, and a target it cannot find is reported absent rather than
raising.  A traced benchmark run then prints ``absent: ...`` and drops that
layer's metrics from its result, so a rename in ``src/`` silently breaks the
benchmark.  This test makes such a rename fail here instead.
"""

from __future__ import annotations

import importlib.util
from collections import Counter
from pathlib import Path

from fresco import pipeline, synth
from fresco.config import Config

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


def test_relative_pose_is_recorded_through_the_traced_names():
    # the spans the benchmark's per-layer metrics read, for one two-stage pose
    spans = _load_spans()
    cfg = Config()
    scene = synth.generate(synth.SceneSpec(seed=7, pillars=20, walls=8, rings=2,
                                           range_limit=30.0))
    moved = synth.perturb(scene, tx=1.0, ty=-0.5, yaw_deg=10.0)
    query, candidate = pipeline.preprocess(moved, cfg), pipeline.preprocess(scene, cfg)
    with spans.Tracer() as tracer:
        pipeline.relative_pose(query, candidate, 0, cfg)
    names = [s["name"] for s in tracer.spans]
    assert Counter(names) == {
        "pipeline.compact_2d": 2,
        "pose.extract_compact_2d": 2,
        "pose.estimate_pose_stage1": 1,
        "pose.refine_pose_3d": 1,
    }
    parents = {names[s["parent"]] for s in tracer.spans if s["name"] == "pose.extract_compact_2d"}
    assert parents == {"pipeline.compact_2d"}
