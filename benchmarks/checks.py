"""Checks made apart from the program.

Nothing here compares against a stored copy of the program's output.  The
descriptor reference is written from the documented method alone; poses are
compared with the generator's truth; evaluation artifacts are relabelled and
recounted from the generator's own positions.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
from scipy.ndimage import map_coordinates

# tolerances, set from the first measurement (see README.md)
HALF_PERIOD_TOL = 1e-6  # max |d[:, j] - d[:, j + width/2]|
REFERENCE_TOL = 1e-9  # max |describe - reference|, descriptor values are ~1..15
ROTATION_TOL_DEG = 3.0  # coarse rotation against the true yaw, modulo 180
RTE_BOUND_M = 0.5  # final pose against the generator's offset
RRE_BOUND_DEG = 2.0
GROUND_DROPPED_MIN = 0.5  # share of labelled ground points remove_ground drops
STRUCTURE_KEPT_MIN = 0.99  # share of labelled structure points it keeps

# the height band and offset the BEV documents: bins hold max(z) - Z_MIN
Z_MIN, Z_MAX = -3.0, 30.0


def reference_descriptor(xyz: np.ndarray, cfg) -> np.ndarray:
    """Descriptor of a preprocessed cloud, from the documented method.

    Max-height grid (row from x, column from y, bins rounded half away from
    zero and clamped to the grid), ``numpy.fft.fft2``, ``log1p`` of the
    magnitude, ``fftshift``, then bilinear samples on rings of radius
    (i+1)*(crop/2)/(rings+1) at angles j*2*pi/bins around the centre.
    """
    half = cfg.window_m / 2.0
    size = cfg.grid_size
    x, y, z = xyz.T
    keep = (np.abs(x) <= half) & (np.abs(y) <= half) & (z >= Z_MIN) & (z <= Z_MAX)
    x, y, z = x[keep], y[keep], z[keep]
    width = cfg.window_m / size
    # coordinates are non-negative here, where half-away rounding is floor(v + 0.5)
    r = np.clip(np.floor((x + half) / width + 0.5), 0, size - 1).astype(np.int64)
    c = np.clip(np.floor((y + half) / width + 0.5), 0, size - 1).astype(np.int64)
    cell = r * size + c
    order = np.lexsort((z, cell))  # by cell, highest point last
    last = np.r_[cell[order][1:] != cell[order][:-1], True]
    image = np.zeros(size * size)
    image[cell[order][last]] = z[order][last] - Z_MIN
    spectrum = np.fft.fftshift(np.log1p(np.abs(np.fft.fft2(image.reshape(size, size)))))
    radii = (np.arange(cfg.radial_bins) + 1.0) * (cfg.crop_size / 2.0) / (cfg.radial_bins + 1.0)
    theta = np.arange(cfg.angular_bins) * (2.0 * np.pi / cfg.angular_bins)
    rows = size // 2 + radii[:, None] * np.cos(theta)[None, :]
    cols = size // 2 + radii[:, None] * np.sin(theta)[None, :]
    return map_coordinates(spectrum, [rows, cols], order=1, mode="constant", cval=0.0)


def half_period_error(desc: np.ndarray) -> float:
    half = desc.shape[1] // 2
    return float(np.abs(desc[:, :half] - desc[:, half:]).max())


def ground_split(raw_labels: np.ndarray, kept_labels: np.ndarray) -> tuple[float, float]:
    """(share of ground dropped, share of structure kept); labels 1 = ground."""
    ground_in = int((raw_labels == 1).sum())
    struct_in = int((raw_labels == 0).sum())
    ground_out = int((kept_labels == 1).sum())
    struct_out = int((kept_labels == 0).sum())
    return 1.0 - ground_out / ground_in, struct_out / struct_in


def wrap_deg(a):
    return (np.asarray(a) + 180.0) % 360.0 - 180.0


def rotation_error_mod180(rotation_deg: float, yaw_deg: float) -> float:
    d = (rotation_deg - yaw_deg) % 180.0
    return float(min(d, 180.0 - d))


def pose_error(tx, ty, yaw_rad, true_tx, true_ty, true_yaw_deg) -> tuple[float, float]:
    """(RTE in m, RRE in degrees) of an estimate against the truth."""
    rte = float(np.hypot(tx - true_tx, ty - true_ty))
    rre = float(abs(wrap_deg(np.degrees(yaw_rad) - true_yaw_deg)))
    return rte, rre


def _se2(x, y, yaw_deg) -> np.ndarray:
    c, s = np.cos(np.radians(yaw_deg)), np.sin(np.radians(yaw_deg))
    return np.array([[c, -s, x], [s, c, y], [0.0, 0.0, 1.0]])


def recount_evaluation(out_dir: Path, poses, places, cfg) -> tuple[dict[int, str], list[str]]:
    """Relabel ``matches.csv`` and recount ``report.json`` from the route's truth.

    ``poses`` holds each frame's world (x, y, yaw_deg) and ``places`` the place
    it observes.  Returns the problems found per query frame and the problems
    with the report as a whole.
    """
    bad: dict[int, str] = {}
    whole: list[str] = []
    xy = np.array([(x, y) for x, y, _ in poses])
    with open(out_dir / "matches.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(out_dir / "poses.csv", newline="") as fh:
        pose_rows = {int(r["query"]): r for r in csv.DictReader(fh)}
    report = json.loads((out_dir / "report.json").read_text())
    if len(rows) != len(poses) or report["dataset"]["keyframes"] != len(poses):
        whole.append(f"{len(rows)} match rows and {report['dataset']['keyframes']} keyframes "
                     f"for {len(poses)} frames, each of which is a keyframe")
        return bad, whole

    recs = []  # (d_l1, returnable, correct, has_positive)
    for pos, row in enumerate(rows):
        q = int(row["query"])
        match = int(row["match"]) if row["match"] else None
        d_l1, d_r = float(row["d_l1"]), float(row["d_r"])
        eligible = xy[: max(0, pos - cfg.exclusion_horizon)]
        has_pos = bool((np.hypot(*(eligible - xy[q]).T) <= cfg.tp_radius_m).any())
        correct = match is not None and float(np.hypot(*(xy[match] - xy[q]))) <= cfg.tp_radius_m
        accepted = match is not None and d_l1 <= cfg.l1_threshold and d_r <= cfg.cosine_threshold
        label = ("TP" if correct else "FP") if accepted else ("FN" if has_pos else "TN")
        if row["label"] != label:
            bad[q] = f"label {row['label']}, truth gives {label}"
        elif accepted and places[match] != places[q]:
            bad[q] = f"accepted frame {match} of place {places[match]}, query is place {places[q]}"
        elif accepted and q not in pose_rows:
            bad[q] = "accepted without a pose row"
        elif label == "TP":
            p = pose_rows[q]
            gt = np.linalg.inv(_se2(*poses[match])) @ _se2(*poses[q])
            rte, rre = pose_error(float(p["tx"]), float(p["ty"]), np.radians(float(p["yaw_deg"])),
                                  gt[0, 2], gt[1, 2], np.degrees(np.arctan2(gt[1, 0], gt[0, 0])))
            if rte > RTE_BOUND_M or rre > RRE_BOUND_DEG:
                bad[q] = f"pose off by {rte:.3f} m, {rre:.2f} deg"
        ok = match is not None and d_r <= cfg.cosine_threshold and np.isfinite(d_l1)
        recs.append((d_l1, ok, correct, has_pos))

    # the operating point: the first threshold, in ascending order, of maximal F1
    n_pos = sum(r[3] for r in recs)
    best = None
    for tau in sorted({r[0] for r in recs if r[1]}) or [0.0]:
        ret = [r for r in recs if r[1] and r[0] <= tau]
        tp = sum(r[2] for r in ret)
        fp = len(ret) - tp
        fn = n_pos - sum(r[3] for r in ret)
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        if best is None or f1 > best[0]:
            best = (f1, tau, tp, fp, fn, len(recs) - tp - fp - fn)
    pr = report["pr"]
    got = (pr["max_f1"], pr["threshold"], pr["tp"], pr["fp"], pr["fn"], pr["tn"])
    if not np.allclose(got, best, rtol=1e-12, atol=0.0):
        whole.append(f"report operating point {got}, recount gives {best}")
    return bad, whole
