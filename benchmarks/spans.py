"""Spans recorded from outside the program, by wrapping its public functions.

Each target is rebound at the name its caller looks it up by: ``fresco.pipeline``
calls ``remove_ground`` through the name it imported, ``fresco.evaluate`` calls
``refine_pose_3d`` through its own import, ``fresco.pose`` calls ``nicp_2d``
through its module global, and ``KeyframeIndex.match`` calls ``self.retrieve``.
A span keeps its name, start, end, parent and a few counts read from the
call's arguments or return value.  Spans stay in memory until the run ends.
A target that no longer exists is reported absent, not as an error.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path

import numpy as np

# span name -> the (module, attribute) bindings the program calls it through
TARGETS = {
    "datasets.load_scan": [("fresco.datasets", "load_scan"), ("fresco.evaluate", "load_scan")],
    "cloud.crop_window": [("fresco.pipeline", "crop_window")],
    "cloud.remove_ground": [("fresco.pipeline", "remove_ground")],
    "bev.make_bev": [("fresco.pipeline", "make_bev"), ("fresco.evaluate", "make_bev")],
    "spectrum.log_spectrum": [("fresco.pipeline", "log_spectrum"), ("fresco.evaluate", "log_spectrum")],
    "spectrum.polar_unroll": [("fresco.pipeline", "polar_unroll"), ("fresco.evaluate", "polar_unroll")],
    "pipeline.describe": [("fresco.pipeline", "describe")],
    "pipeline.preprocess": [("fresco.pipeline", "preprocess"), ("fresco.evaluate", "preprocess")],
    "pipeline.compact_2d": [("fresco.pipeline", "compact_2d")],
    "pipeline.stage1_pose": [("fresco.pipeline", "stage1_pose")],
    "index.insert": [("fresco.index", "KeyframeIndex.insert")],
    "index.save": [("fresco.index", "KeyframeIndex.save")],
    "index.load": [("fresco.index", "KeyframeIndex.load")],
    "index.retrieve": [("fresco.index", "KeyframeIndex.retrieve")],
    "index.match": [("fresco.index", "KeyframeIndex.match")],
    "matching.shift_l1_table": [("fresco.index", "shift_l1_table")],
    "matching.row_cosine": [("fresco.index", "row_cosine")],
    "pose.extract_compact_2d": [
        ("fresco.pipeline", "extract_compact_2d"),
        ("fresco.evaluate", "extract_compact_2d"),
    ],
    "pose.estimate_pose_stage1": [
        ("fresco.pipeline", "estimate_pose_stage1"),
        ("fresco.evaluate", "estimate_pose_stage1"),
    ],
    "pose.nicp_2d": [("fresco.pose", "nicp_2d")],
    "pose.refine_pose_3d": [("fresco.pose", "refine_pose_3d"), ("fresco.evaluate", "refine_pose_3d")],
    "evaluate.run_evaluation": [("fresco.evaluate", "run_evaluation")],
    "evaluate.pr_sweep": [("fresco.evaluate", "pr_sweep")],
}


def _shift_table_bytes(args) -> int:
    """Bytes ``shift_l1_table`` reads and writes, computed from its input shapes.

    Layout: read the (n, rows, width) float64 stack, write its doubled copy.
    Per searched shift: read a doubled slice and the query, write the
    difference, read and write it for abs, read it for the sum.
    """
    n, rows, width = np.shape(args[1])
    size = rows * width
    layout = 3 * n * size
    per_shift = 5 * n * size + size
    return 8 * (layout + (width // 2) * per_shift)


# counts read from a call: span name -> fn(args, result) -> {count: value}
COUNTS = {
    "cloud.remove_ground": lambda a, r: {"points_in": len(a[0]), "points_out": len(r)},
    "pose.extract_compact_2d": lambda a, r: {"points_out": len(r.points)},
    "pose.nicp_2d": lambda a, r: {"iters": len(r.trace), "converged": int(r.converged)},
    "pose.estimate_pose_stage1": lambda a, r: {"branch1": int(r.branch == 1)},
    "pose.refine_pose_3d": lambda a, r: {"converged": int(r.converged)},
    "index.retrieve": lambda a, r: {"candidates": len(r)},
    "index.match": lambda a, r: {"accepted": int(r.accepted)},
    "matching.shift_l1_table": lambda a, r: {"bytes": _shift_table_bytes(a)},
}


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        counts = COUNTS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None}
            spans.append(span)
            stack.append(len(spans) - 1)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counts is not None:
                span.update(counts(args, result))
            return result

        return traced

    def __enter__(self):
        self.absent = []
        for name, bindings in TARGETS.items():
            found = False
            for modname, attr in bindings:
                try:
                    owner = importlib.import_module(modname)
                    *path, leaf = attr.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
                except (ImportError, AttributeError, KeyError):
                    continue
                found = True
                self._saved.append((owner, leaf, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, leaf, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(owner, leaf, self._wrap(name, raw))
            if not found:
                self.absent.append(name)
        return self

    def __exit__(self, *exc):
        for owner, leaf, raw in reversed(self._saved):
            setattr(owner, leaf, raw)
        self._saved.clear()
        return False

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s, own in zip(self.spans, self.self_times()):
                fh.write(json.dumps({**s, "self": own}) + "\n")


def _p50_ms(values) -> float:
    return float(np.median(values)) * 1000.0 if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


# per-layer metric -> unit, better
PER_LAYER = {
    "datasets.load_scan.ms_p50": ("ms", "lower"),
    "cloud.crop_window.ms_p50": ("ms", "lower"),
    "cloud.remove_ground.ms_p50": ("ms", "lower"),
    "cloud.remove_ground.points_in": ("count", "lower"),
    "cloud.remove_ground.points_out": ("count", "lower"),
    "bev.make_bev.ms_p50": ("ms", "lower"),
    "spectrum.log_spectrum.ms_p50": ("ms", "lower"),
    "spectrum.polar_unroll.ms_p50": ("ms", "lower"),
    "pipeline.describe.ms_p50": ("ms", "lower"),
    "pipeline.stage1_pose.ms_p50": ("ms", "lower"),
    "pipeline.compact_2d.calls_per_pose": ("count", "lower"),
    "pipeline.preprocess.calls_per_op": ("count", "lower"),
    "index.insert.ms_p50": ("ms", "lower"),
    "index.save.ms": ("ms", "lower"),
    "index.load.ms": ("ms", "lower"),
    "index.retrieve.ms_p50": ("ms", "lower"),
    "index.match.self_ms_p50": ("ms", "lower"),
    "index.match.candidates_per_query": ("count", "lower"),
    "index.match.accepted_ratio": ("ratio", "higher"),
    "matching.shift_l1_table.ms_p50": ("ms", "lower"),
    "matching.shift_l1_table.mb_per_call": ("MB", "lower"),
    "matching.row_cosine.ms_p50": ("ms", "lower"),
    "pose.extract_compact_2d.ms_p50": ("ms", "lower"),
    "pose.extract_compact_2d.points_out": ("count", "lower"),
    "pose.estimate_pose_stage1.ms_p50": ("ms", "lower"),
    "pose.estimate_pose_stage1.branch1_ratio": ("ratio", "lower"),
    "pose.nicp_2d.ms_p50": ("ms", "lower"),
    "pose.nicp_2d.iters_mean": ("count", "lower"),
    "pose.nicp_2d.converged_ratio": ("ratio", "higher"),
    "pose.refine_pose_3d.ms_p50": ("ms", "lower"),
    "pose.refine_pose_3d.converged_ratio": ("ratio", "higher"),
    "evaluate.run_evaluation.self_ms": ("ms", "lower"),
    "evaluate.pr_sweep.ms": ("ms", "lower"),
    "evaluate.artifact_bytes": ("B", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def per_layer(tracer: Tracer, ops: int, extra: dict) -> dict[str, float]:
    """Per-layer figures of the traced rounds; 0 where a layer did not run.

    Timings are medians per call (``self_ms`` subtracts the time of the
    wrapped calls made inside); counts are per call or per operation as the
    name says.  ``extra`` carries figures measured outside the spans.
    Metrics whose layer is absent are left out.
    """
    own = tracer.self_times()
    by: dict[str, list[int]] = {}
    for i, s in enumerate(tracer.spans):
        by.setdefault(s["name"], []).append(i)

    def dur(name):
        return [tracer.spans[i]["end"] - tracer.spans[i]["start"] for i in by.get(name, [])]

    def field(name, key):
        return [tracer.spans[i][key] for i in by.get(name, [])]

    def calls(name):
        return len(by.get(name, []))

    poses = calls("pose.estimate_pose_stage1")
    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update({k: _p50_ms(dur(k[: -len(".ms_p50")])) for k in PER_LAYER if k.endswith(".ms_p50")})
    out.update({
        "cloud.remove_ground.points_in": _mean(field("cloud.remove_ground", "points_in")),
        "cloud.remove_ground.points_out": _mean(field("cloud.remove_ground", "points_out")),
        "pipeline.compact_2d.calls_per_pose": calls("pipeline.compact_2d") / poses if poses else 0.0,
        "pipeline.preprocess.calls_per_op": calls("pipeline.preprocess") / ops,
        "index.save.ms": _p50_ms(dur("index.save")),
        "index.load.ms": _p50_ms(dur("index.load")),
        "index.match.self_ms_p50": _p50_ms([own[i] for i in by.get("index.match", [])]),
        "index.match.candidates_per_query": _mean(field("index.retrieve", "candidates")),
        "index.match.accepted_ratio": _mean(field("index.match", "accepted")),
        "matching.shift_l1_table.mb_per_call": _mean(field("matching.shift_l1_table", "bytes")) / 1e6,
        "pose.extract_compact_2d.points_out": _mean(field("pose.extract_compact_2d", "points_out")),
        "pose.estimate_pose_stage1.branch1_ratio": _mean(field("pose.estimate_pose_stage1", "branch1")),
        "pose.nicp_2d.iters_mean": _mean(field("pose.nicp_2d", "iters")),
        "pose.nicp_2d.converged_ratio": _mean(field("pose.nicp_2d", "converged")),
        "pose.refine_pose_3d.converged_ratio": _mean(field("pose.refine_pose_3d", "converged")),
        "evaluate.run_evaluation.self_ms": _p50_ms(
            [own[i] for i in by.get("evaluate.run_evaluation", [])]
        ),
        "evaluate.pr_sweep.ms": _p50_ms(dur("evaluate.pr_sweep")),
    })
    out.update(extra)
    absent = set(tracer.absent)
    return {k: v for k, v in out.items() if k.rsplit(".", 1)[0] not in absent}
