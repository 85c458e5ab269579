"""Evaluation harness: keyframe sampling, match labeling, PR sweeps, pose
error statistics, runtime accounting, and the dataset-to-report driver.

The driver walks a dataset's keyframes in order, querying each descriptor
against the index of everything inserted so far, then labels the outcomes
against ground-truth positions.  Acceptance thresholds are swept afterwards
from the recorded scores, so one pass yields the full precision-recall
curve plus the operating point of the configured thresholds.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import pipeline
from .cloud import FormatError
from .config import Config, to_dict
from .datasets import Dataset, TrajectoryPose, load_scan
from .index import DegenerateDescriptorError, KeyframeIndex
from .pipeline import preprocess, relative_pose
from .pose import InsufficientStructureError, Se3Pose
from .properties import pose_error


def sample_keyframes(poses: list[TrajectoryPose], spacing_m: float) -> list[int]:
    """Greedy arc-length sampling: keep a frame once the vehicle has moved
    at least ``spacing_m`` from the last kept frame.  First frame always kept."""
    if spacing_m <= 0:
        raise ValueError("spacing must be positive")
    kept: list[int] = []
    last = None
    for p in poses:
        if last is None or float(np.linalg.norm(p.position - last)) >= spacing_m:
            kept.append(p.frame_id)
            last = p.position
    return kept


def label_match(
    query_id: int,
    match_id: int | None,
    positions: dict[int, np.ndarray],
    radius: float,
    eligible_ids,
) -> str:
    """Classify one query outcome as TP / FP / FN / TN.

    A returned match within ``radius`` of the query's ground-truth position
    is a TP, farther is an FP.  With no match returned, the outcome is an FN
    when some keyframe the index could have returned (``eligible_ids``, see
    ``KeyframeIndex.eligible_ids``) lies within radius, else a TN.  Unknown
    ids raise KeyError.
    """
    others = eligible_ids if match_id is None else [match_id]
    try:
        q = np.asarray(positions[query_id], dtype=float)
        pts = np.array([positions[i] for i in others], dtype=float).reshape(-1, q.size)
    except KeyError as err:
        raise KeyError(f"unknown frame id {err.args[0]}") from None
    near = bool((np.linalg.norm(pts - q, axis=1) <= radius).any())
    if match_id is not None:
        return "TP" if near else "FP"
    return "FN" if near else "TN"


@dataclass(frozen=True)
class QueryRecord:
    """One query's outcome.  The first six fields are the scores and ground
    truth a threshold sweep needs; ``shift`` is the best candidate's column
    shift, ``label`` the query's TP / FP / FN / TN label at the configured
    thresholds, and ``pose`` the relative pose of an accepted match (NaN when
    its scans lacked structure; ``None`` when nothing was accepted)."""

    query_id: int
    candidate_id: int | None
    d_l1: float
    d_r: float
    correct: bool  # candidate lies within the TP radius of the query
    has_positive: bool  # an eligible prior keyframe lies within the radius
    shift: int = 0
    label: str | None = None
    pose: Se3Pose | None = None


@dataclass(frozen=True)
class PrPoint:
    threshold: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    tn: int


@dataclass
class PrSweep:
    points: list[PrPoint]
    best: PrPoint
    n_eligible: int  # queries for which a positive existed
    recall_eligible: float | None  # best-point TP over eligible queries
    recall_all: float | None  # best-point TP over all queries
    degenerate: bool  # no query had a positive; recall is undefined


def pr_sweep(records: list[QueryRecord], cosine_threshold: float = np.inf) -> PrSweep:
    """Sweep the L1 acceptance threshold over every observed score.

    The cosine gate stays fixed: a candidate only counts as returned when
    its d_r passes ``cosine_threshold`` and its d_l1 is below the swept
    threshold.  Precision is 1 by convention when nothing is returned.
    """
    n = len(records)
    n_pos = sum(r.has_positive for r in records)
    returnable = [
        r
        for r in records
        if r.candidate_id is not None and r.d_r <= cosine_threshold and np.isfinite(r.d_l1)
    ]
    returnable.sort(key=lambda r: r.d_l1)
    points = []
    tp = fp = returned_pos = 0
    i = 0
    thresholds = sorted({r.d_l1 for r in returnable}) or [0.0]
    for tau in thresholds:
        while i < len(returnable) and returnable[i].d_l1 <= tau:
            r = returnable[i]
            tp += r.correct
            fp += not r.correct
            returned_pos += r.has_positive
            i += 1
        fn = n_pos - returned_pos
        tn = n - tp - fp - fn
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        points.append(PrPoint(float(tau), precision, recall, f1, tp, fp, fn, tn))
    best = max(points, key=lambda p: p.f1)
    degenerate = n_pos == 0
    return PrSweep(
        points=points,
        best=best,
        n_eligible=n_pos,
        recall_eligible=None if degenerate else best.tp / n_pos,
        recall_all=None if n == 0 else best.tp / n,
        degenerate=degenerate,
    )


@dataclass(frozen=True)
class PoseStats:
    rte_mean: float
    rte_std: float
    rre_mean: float
    rre_std: float
    success_rate: float
    count: int


def pose_metrics(estimates: list[Se3Pose], gt_matrices: list[np.ndarray]) -> PoseStats:
    """Relative translation / rotation errors against ground-truth pairs.

    RTE and RRE are ``properties.pose_error``'s.  Success follows each
    estimate's own flag (final 3D alignment error under the documented
    bound).  NaN estimates are excluded from the error means, which are NaN
    when nothing is left, but still count against the success rate.
    """
    if not estimates:
        raise ValueError("pose_metrics needs at least one estimate")
    if len(estimates) != len(gt_matrices):
        raise ValueError("estimates and ground truth differ in length")
    errors = [
        pose_error(est, m[0, 3], m[1, 3], float(np.arctan2(m[1, 0], m[0, 0])))
        for est, m in zip(estimates, gt_matrices)
    ]
    (rte_mean, rte_std), (rre_mean, rre_std) = (_nan_mean_std(e) for e in zip(*errors))
    return PoseStats(
        rte_mean, rte_std, rre_mean, rre_std,
        success_rate=float(np.mean([bool(est.success) for est in estimates])),
        count=len(estimates),
    )


def _nan_mean_std(values) -> tuple[float, float]:
    """Mean and standard deviation ignoring NaN; both NaN when nothing is left."""
    arr = np.array(values)
    if np.isnan(arr).all():
        return np.nan, np.nan
    with np.errstate(invalid="ignore"):
        return float(np.nanmean(arr)), float(np.nanstd(arr))


class PhaseTimer:
    """Accumulates wall-clock samples per named phase."""

    def __init__(self):
        self._samples: dict[str, list[float]] = {}

    @contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - t0)

    def add(self, name: str, seconds: float) -> None:
        self._samples.setdefault(name, []).append(seconds)


def runtime_report(timer: PhaseTimer) -> dict[str, float]:
    """Mean milliseconds per phase.  Phases that never ran are absent, not
    zero; absence and a measured zero mean different things."""
    return {
        name: 1000.0 * sum(vals) / len(vals)
        for name, vals in timer._samples.items()
        if vals
    }


def trajectory_svg(path_xy, tp_segments, fp_segments, out_path) -> None:
    """Write the trajectory as an SVG: black path, green TP links, red FP links."""
    size = 800.0  # svg units across the longer side of the data
    pts = np.asarray(path_xy, dtype=float).reshape(-1, 2)
    coords = [pts] + [np.asarray(s, dtype=float).reshape(-1, 2) for s in (tp_segments or [])]
    coords += [np.asarray(s, dtype=float).reshape(-1, 2) for s in (fp_segments or [])]
    stacked = np.vstack(coords)
    if stacked.shape[0] == 0:
        lo = np.zeros(2)
        span = np.ones(2)
    else:
        lo = stacked.min(axis=0)
        span = np.maximum(stacked.max(axis=0) - lo, 1e-6)
    scale = size / span.max()
    pad = 0.04 * size
    width = span[0] * scale + 2 * pad
    height = span[1] * scale + 2 * pad

    def project(p):
        x = (p[0] - lo[0]) * scale + pad
        y = height - ((p[1] - lo[1]) * scale + pad)  # svg y grows downward
        return f"{x:.2f},{y:.2f}"

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:.2f} {height:.2f}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for segs, color in ((tp_segments or [], "green"), (fp_segments or [], "red")):
        for a, b in segs:
            pa, pb = project(a).split(","), project(b).split(",")
            lines.append(
                f'<line x1="{pa[0]}" y1="{pa[1]}" x2="{pb[0]}" y2="{pb[1]}" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
    if pts.shape[0] >= 2:
        joined = " ".join(project(p) for p in pts)
        lines.append(
            f'<polyline fill="none" stroke="black" stroke-width="1" points="{joined}"/>'
        )
    lines.append("</svg>")
    Path(out_path).write_text("\n".join(lines) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    """One comma-joined line per row under ``header``: floats as ``repr``,
    flags as 0 / 1, None as an empty cell."""

    def cell(v) -> str:
        if v is None:
            return ""
        if isinstance(v, bool):
            return str(int(v))
        return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)

    path.write_text("".join(",".join(map(cell, row)) + "\n" for row in [header, *rows]))


POSE_FIELDS = (
    "tx", "ty", "tz", "roll_deg", "pitch_deg", "yaw_deg", "mse", "converged", "success"
)


def pose_fields(est: Se3Pose) -> dict:
    """``fresco query``'s ``pose`` object, and in order a ``poses.csv`` row's pose columns."""
    angles = [np.degrees(a) for a in (est.roll, est.pitch, est.yaw)]
    values = [float(v) for v in (est.tx, est.ty, est.tz, *angles, est.mse)]
    return dict(zip(POSE_FIELDS, values + [bool(est.converged), bool(est.success)]))


def json_safe(obj):
    """Copy of ``obj`` that ``json.dumps`` accepts; non-finite floats become None."""
    if isinstance(obj, dict):
        return {k: json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if np.isfinite(obj) else None
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def run_evaluation(
    dataset: Dataset,
    cfg: Config,
    out_dir,
    svg: bool = False,
    log=None,
) -> dict:
    """Evaluate loop-closure detection over a dataset; write all artifacts.

    Produces pr_curve.csv, matches.csv, poses.csv, report.json and
    optionally trajectory.svg under ``out_dir``, and returns the report as
    a dictionary.  Each keyframe's scan is read and preprocessed once; that
    cloud gives its descriptor and, for an accepted match, the query side of
    its pose, so only the candidate is read again.  Scan loading is excluded
    from the phase timings.
    """
    if dataset.poses is None:
        raise FormatError(
            f"{dataset.root}: dataset has no pose file; evaluation needs ground truth"
        )
    if dataset.fmt == "kitti" and not (dataset.root / "calib.txt").exists():
        raise FormatError(
            f"{dataset.root}: no calib.txt; kitti poses.txt is in the camera frame, and"
            " evaluation needs its Tr line to express the poses in the sensor frame"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    say = log if log is not None else lambda _m: None

    positions = {p.frame_id: p.position for p in dataset.poses}
    matrices = {p.frame_id: p.matrix for p in dataset.poses}
    sampled = sample_keyframes(dataset.poses, cfg.keyframe_spacing_m)
    kf = [fid for fid in sampled if fid in dataset.scans]
    missing = len(sampled) - len(kf)
    if missing:
        say(f"warning: {missing} keyframes have no scan file; skipped")
    say(f"{len(kf)} keyframes from {len(dataset.poses)} poses")

    timer = PhaseTimer()
    idx = KeyframeIndex(exclusion_horizon=cfg.exclusion_horizon)
    records: list[QueryRecord] = []
    degenerate_frames = 0
    for done, fid in enumerate(kf, 1):
        scan = load_scan(dataset.scans[fid])  # IO outside the timed region
        with timer.phase("descriptor"):
            query = preprocess(scan, cfg)
            # looked up through the module, so a wrapper installed there sees the call
            desc = pipeline.describe_preprocessed(query, cfg)
        del scan  # not needed past here; holding it through the pose raises peak memory
        try:
            with timer.phase("retrieval"):
                res = pipeline.match(idx, desc, cfg)
        except DegenerateDescriptorError:
            # structure-free frame: flagged and left out of the index
            degenerate_frames += 1
            say(f"warning: frame {fid} has a degenerate descriptor; skipped")
        else:
            eligible = idx.eligible_ids
            missed = label_match(fid, None, positions, cfg.tp_radius_m, eligible)
            found = None if res.candidate_id is None else label_match(
                fid, res.candidate_id, positions, cfg.tp_radius_m, eligible
            )
            idx.insert(fid, desc)
            est3 = None
            if res.accepted:
                try:
                    candidate = preprocess(load_scan(dataset.scans[res.candidate_id]), cfg)
                    est3 = relative_pose(query, candidate, res.best_shift, cfg, timer.phase)
                except InsufficientStructureError:
                    est3 = Se3Pose(np.nan, np.nan, np.nan, np.nan, np.nan, np.nan)
            records.append(QueryRecord(
                fid, res.candidate_id, res.d_l1, res.d_r, found == "TP", missed == "FN",
                res.best_shift, found if res.accepted else missed, est3,
            ))
        if done % 200 == 0:
            say(f"  {done}/{len(kf)} keyframes")

    sweep = pr_sweep(records, cfg.cosine_threshold)
    posed = [r for r in records if r.pose is not None]
    tps = [r for r in posed if r.label == "TP"]
    gt = [np.linalg.inv(matrices[r.candidate_id]) @ matrices[r.query_id] for r in tps]
    stats = pose_metrics([r.pose for r in tps], gt) if tps else None

    _write_csv(out_dir / "pr_curve.csv", ("threshold", "precision", "recall", "f1"),
               [(p.threshold, p.precision, p.recall, p.f1) for p in sweep.points])
    _write_csv(out_dir / "matches.csv", ("query", "match", "d_l1", "d_r", "shift", "label"),
               [(r.query_id, r.candidate_id, r.d_l1, r.d_r, r.shift, r.label) for r in records])
    _write_csv(out_dir / "poses.csv", ("query", "match", *POSE_FIELDS),
               [(r.query_id, r.candidate_id, *pose_fields(r.pose).values()) for r in posed])
    if svg:
        ax = list(dataset.planar_axes)
        chords = {
            label: [(positions[r.query_id][ax], positions[r.candidate_id][ax])
                    for r in posed if r.label == label]
            for label in ("TP", "FP")
        }
        trajectory_svg([positions[fid][ax] for fid in kf], chords["TP"], chords["FP"],
                       out_dir / "trajectory.svg")

    report = {
        "dataset": {
            "root": str(dataset.root),
            "format": dataset.fmt,
            "scan_count": len(dataset.scans),
            "keyframes": len(kf),
            "keyframes_missing_scans": missing,
            "degenerate_frames": degenerate_frames,
            "queries": len(records),
        },
        "pr": {
            "max_f1": sweep.best.f1,
            "threshold": sweep.best.threshold,
            "precision": sweep.best.precision,
            "recall": sweep.best.recall,
            "tp": sweep.best.tp,
            "fp": sweep.best.fp,
            "fn": sweep.best.fn,
            "tn": sweep.best.tn,
            "eligible_queries": sweep.n_eligible,
            "recall_eligible_queries": sweep.recall_eligible,
            "recall_all_queries": sweep.recall_all,
            "degenerate": sweep.degenerate,
        },
        "pose": None
        if stats is None
        else {
            "rte_mean_m": stats.rte_mean,
            "rte_std_m": stats.rte_std,
            "rre_mean_deg": stats.rre_mean,
            "rre_std_deg": stats.rre_std,
            "success_rate": stats.success_rate,
            "count": stats.count,
        },
        "runtime_ms": runtime_report(timer),
        "config": to_dict(cfg),
    }
    (out_dir / "report.json").write_text(
        json.dumps(json_safe(report), indent=2, sort_keys=True) + "\n"
    )
    return report
