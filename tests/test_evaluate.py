"""Keyframe sampling, match labeling, PR sweeps, pose metrics, artifacts."""

import csv
import json
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from fresco.datasets import TrajectoryPose
from fresco.evaluate import (
    POSE_FIELDS,
    PhaseTimer,
    QueryRecord,
    label_match,
    pose_fields,
    pose_metrics,
    pr_sweep,
    runtime_report,
    sample_keyframes,
    trajectory_svg,
)
from fresco.pose import Se3Pose


def _pose(fid, x, y, z=0.0):
    m = np.eye(4)
    m[:3, 3] = [x, y, z]
    return TrajectoryPose(fid, m)


def test_sample_single_pose():
    assert sample_keyframes([_pose(7, 0, 0)], 2.0) == [7]


def test_sample_line_every_fourth():
    poses = [_pose(i, 0.5 * i, 0.0) for i in range(20)]
    assert sample_keyframes(poses, 2.0) == [0, 4, 8, 12, 16]


def test_sample_circle_gap_bounds():
    r, step = 50.0, 0.1
    n = int(2 * np.pi * r / step)
    poses = [
        _pose(i, r * np.cos(i * step / r), r * np.sin(i * step / r)) for i in range(n)
    ]
    kept = sample_keyframes(poses, 2.0)
    pos = {p.frame_id: p.position for p in poses}
    # oracle recount: each kept frame sits 2.0 to 2.1 m after the previous one
    gaps = [
        float(np.linalg.norm(pos[b] - pos[a])) for a, b in zip(kept, kept[1:])
    ]
    assert min(gaps) >= 2.0
    assert max(gaps) <= 2.1


def test_sample_rejects_bad_spacing():
    with pytest.raises(ValueError):
        sample_keyframes([_pose(0, 0, 0)], 0.0)


def _positions(*rows):
    return {fid: np.array(p, dtype=float) for fid, p in rows}


def test_label_match_cases():
    pos = _positions((0, (0, 0, 0)), (1, (3, 0, 0)), (2, (30, 0, 0)), (3, (100, 0, 0)))
    assert label_match(1, 0, pos, 10.0, [0]) == "TP"
    assert label_match(2, 0, pos, 10.0, [0, 1]) == "FP"
    assert label_match(1, None, pos, 10.0, [0]) == "FN"  # frame 0 was there to find
    assert label_match(3, None, pos, 10.0, [0, 1, 2]) == "TN"


def test_label_match_eligibility_override():
    pos = _positions((0, (0, 0, 0)), (1, (3, 0, 0)))
    # the only nearby frame is excluded, so missing it is a TN
    assert label_match(1, None, pos, 10.0, []) == "TN"


def test_label_match_unknown_ids():
    pos = _positions((0, (0, 0, 0)))
    with pytest.raises(KeyError):
        label_match(5, None, pos, 10.0, [0])
    with pytest.raises(KeyError):
        label_match(0, 9, pos, 10.0, [])
    with pytest.raises(KeyError):
        label_match(0, None, pos, 10.0, [7])


def _rec(q, cand, d_l1, d_r, correct, has_positive):
    return QueryRecord(q, cand, d_l1, d_r, correct, has_positive)


def test_pr_sweep_all_correct():
    records = [_rec(i, i + 100, 0.0, 0.0, True, True) for i in range(3)]
    sweep = pr_sweep(records)
    assert sweep.best.precision == 1.0
    assert sweep.best.recall == 1.0
    assert sweep.best.f1 == 1.0
    assert sweep.recall_eligible == 1.0


def test_pr_sweep_hand_counted():
    records = [
        _rec(1, 10, 0.10, 0.01, True, True),
        _rec(2, 11, 0.20, 0.01, False, False),
        _rec(3, None, np.inf, np.inf, False, True),
        _rec(4, 12, 0.30, 0.50, True, True),  # blocked by the cosine gate
        _rec(5, 13, 0.15, 0.02, False, False),
        _rec(6, 14, 0.05, 0.00, True, True),
    ]
    sweep = pr_sweep(records, cosine_threshold=0.10)
    # counted by hand: thresholds are the returnable scores
    want = {
        0.05: (1, 0, 3, 2),
        0.10: (2, 0, 2, 2),
        0.15: (2, 1, 2, 1),
        0.20: (2, 2, 2, 0),
    }
    assert [p.threshold for p in sweep.points] == sorted(want)
    for p in sweep.points:
        assert (p.tp, p.fp, p.fn, p.tn) == want[p.threshold]
        assert p.tp + p.fp + p.fn + p.tn == len(records)
    assert sweep.best.threshold == 0.10
    assert sweep.best.precision == 1.0
    assert sweep.best.recall == 0.5
    assert sweep.best.f1 == pytest.approx(2 / 3)
    assert sweep.n_eligible == 4
    assert sweep.recall_eligible == 0.5
    assert sweep.recall_all == pytest.approx(2 / 6)
    assert not sweep.degenerate


def test_pr_sweep_recall_never_decreases():
    rng = np.random.default_rng(20)
    records = [
        _rec(i, i + 100, float(rng.uniform(0, 1)), 0.0, bool(rng.uniform() < 0.5),
             bool(rng.uniform() < 0.7))
        for i in range(60)
    ]
    sweep = pr_sweep(records)
    recalls = [p.recall for p in sweep.points]
    assert recalls == sorted(recalls)


def test_pr_sweep_order_invariant():
    rng = np.random.default_rng(21)
    records = [
        _rec(i, i + 100, float(rng.uniform(0, 1)), 0.0, bool(rng.uniform() < 0.5), True)
        for i in range(30)
    ]
    shuffled = list(records)
    rng.shuffle(shuffled)
    assert pr_sweep(records).points == pr_sweep(shuffled).points


def test_pr_sweep_degenerate_flag():
    records = [_rec(i, None, np.inf, np.inf, False, False) for i in range(4)]
    sweep = pr_sweep(records)
    assert sweep.degenerate
    assert sweep.recall_eligible is None
    assert sweep.best.precision == 1.0
    assert sweep.best.recall == 0.0
    assert sweep.best.tn == 4


def _se3(tx, ty, yaw, success=True):
    return Se3Pose(tx, ty, 0.0, 0.0, 0.0, yaw, mse=0.0, converged=True, success=success)


def _gt(tx, ty, yaw):
    m = np.eye(4)
    c, s = np.cos(yaw), np.sin(yaw)
    m[:2, :2] = [[c, -s], [s, c]]
    m[:3, 3] = [tx, ty, 0.0]
    return m


def test_pose_metrics_perfect():
    ests = [_se3(1.0, 2.0, 0.3), _se3(-4.0, 0.5, -1.0)]
    gts = [_gt(1.0, 2.0, 0.3), _gt(-4.0, 0.5, -1.0)]
    stats = pose_metrics(ests, gts)
    assert stats.rte_mean == pytest.approx(0.0, abs=1e-12)
    assert stats.rre_mean == pytest.approx(0.0, abs=1e-12)
    assert stats.success_rate == 1.0
    assert stats.count == 2


def test_pose_metrics_recovers_injected_noise():
    rng = np.random.default_rng(22)
    ests, gts = [], []
    for _ in range(200):
        tx, ty = rng.uniform(-5, 5, 2)
        yaw = float(rng.uniform(-np.pi, np.pi))
        phi = float(rng.uniform(0, 2 * np.pi))
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        ests.append(_se3(tx + 0.2 * np.cos(phi), ty + 0.2 * np.sin(phi),
                         yaw + sign * np.radians(0.5)))
        gts.append(_gt(tx, ty, yaw))
    stats = pose_metrics(ests, gts)
    # every sample was displaced by exactly 0.2 m and 0.5 degrees
    assert stats.rte_mean == pytest.approx(0.2, abs=1e-9)
    assert stats.rte_std == pytest.approx(0.0, abs=1e-9)
    assert stats.rre_mean == pytest.approx(0.5, abs=1e-9)


def test_pose_metrics_excludes_nan_from_means_only():
    ests = [_se3(0.0, 0.0, 0.0), _se3(np.nan, np.nan, np.nan, success=False)]
    gts = [_gt(0.0, 0.0, 0.0), _gt(1.0, 1.0, 0.5)]
    stats = pose_metrics(ests, gts)
    assert stats.rte_mean == pytest.approx(0.0, abs=1e-12)
    assert stats.success_rate == 0.5
    # every estimate non-finite, as when each TP pose lacked structure: NaN
    # means and stds, and no "Mean of empty slice" warning
    stats = pose_metrics(ests[1:], gts[1:])
    assert np.isnan([stats.rte_mean, stats.rte_std, stats.rre_mean, stats.rre_std]).all()
    assert stats.success_rate == 0.0 and stats.count == 1


def test_pose_metrics_input_validation():
    with pytest.raises(ValueError):
        pose_metrics([], [])
    with pytest.raises(ValueError):
        pose_metrics([_se3(0, 0, 0)], [])


def test_runtime_report_means_and_absence():
    timer = PhaseTimer()
    for ms in (1.0, 2.0, 3.0):
        timer.add("descriptor", ms / 1000.0)
    report = runtime_report(timer)
    assert report["descriptor"] == pytest.approx(2.0)
    # a phase that never ran is absent, not reported as zero
    assert "stage2" not in report


def test_phase_timer_measures_wall_clock():
    timer = PhaseTimer()
    with timer.phase("sleepy"):
        time.sleep(0.002)
    report = runtime_report(timer)
    assert report["sleepy"] >= 1.0


def test_trajectory_svg_structure(tmp_path):
    out = tmp_path / "traj.svg"
    path = [(0, 0), (10, 0), (10, 10)]
    trajectory_svg(path, [((0, 0), (10, 10))], [((10, 0), (0, 0))], out)
    root = ET.parse(out).getroot()
    assert root.tag.endswith("svg")
    body = out.read_text()
    assert body.count("<polyline") == 1
    assert body.count('stroke="green"') == 1
    assert body.count('stroke="red"') == 1
    trajectory_svg([], [], [], out)
    root = ET.parse(out).getroot()
    assert root.tag.endswith("svg")
    assert "<polyline" not in out.read_text() and "<line" not in out.read_text()


def test_run_evaluation_artifacts(trip_report):
    dataset, out, report = trip_report
    for name in ("report.json", "matches.csv", "pr_curve.csv", "poses.csv", "trajectory.svg"):
        assert (out / name).exists(), name

    on_disk = json.loads((out / "report.json").read_text())
    assert on_disk["dataset"]["keyframes"] == report["dataset"]["keyframes"]

    with open(out / "matches.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == report["dataset"]["queries"]
    labels = {r["label"] for r in rows}
    assert labels <= {"TP", "FP", "FN", "TN"}
    assert "TP" in labels  # the return leg must close loops

    pr = report["pr"]
    assert pr["tp"] + pr["fp"] + pr["fn"] + pr["tn"] == len(rows)
    assert pr["max_f1"] > 0.5

    runtime = report["runtime_ms"]
    assert "descriptor" in runtime and "retrieval" in runtime and "stage1" in runtime
    assert report["pose"]["count"] > 0


def test_pose_fields_are_the_poses_csv_columns(trip_report):
    _, out, _ = trip_report
    header = (out / "poses.csv").read_text().splitlines()[0]
    assert header == "query,match,tx,ty,tz,roll_deg,pitch_deg,yaw_deg,mse,converged,success"
    est = Se3Pose(1.0, -2.0, 0.5, np.radians(3.0), np.radians(-4.0), np.radians(90.0),
                  mse=0.01, converged=True)
    fields = pose_fields(est)
    assert tuple(fields) == POSE_FIELDS
    assert (fields["tx"], fields["ty"], fields["tz"], fields["mse"]) == (1.0, -2.0, 0.5, 0.01)
    assert fields["roll_deg"] == pytest.approx(3.0) and fields["pitch_deg"] == pytest.approx(-4.0)
    assert fields["yaw_deg"] == pytest.approx(90.0)
    assert fields["converged"] is True and fields["success"] is False


def test_run_evaluation_is_deterministic(trip_dataset, trip_report, tmp_path):
    from fresco.config import Config
    from fresco.datasets import load_dataset
    from fresco.evaluate import run_evaluation

    _, first_out, _ = trip_report
    out = tmp_path / "again"
    run_evaluation(load_dataset(trip_dataset, "generic"), Config(exclusion_horizon=5), out)
    for name in ("matches.csv", "pr_curve.csv", "poses.csv"):
        assert (out / name).read_bytes() == (first_out / name).read_bytes(), name


def test_run_evaluation_with_sampled_stage2_is_byte_identical(
    trip_dataset, monkeypatch, tmp_path
):
    from fresco import pose
    from fresco.config import Config
    from fresco.datasets import load_dataset
    from fresco.evaluate import run_evaluation

    sampled = []
    spaced_picks = pose._spaced_picks

    def spy(size, count):
        if count == pose.STAGE2_QUERY_POINTS:
            sampled.append(size)
        return spaced_picks(size, count)

    monkeypatch.setattr(pose, "_spaced_picks", spy)
    dataset = load_dataset(trip_dataset, "generic")
    for run in ("one", "two"):
        run_evaluation(dataset, Config(exclusion_horizon=5), tmp_path / run)
    # stage 2 registered a sample of the query centroids, not all of them
    assert sampled and min(sampled) > pose.STAGE2_QUERY_POINTS
    for name in ("matches.csv", "pr_curve.csv", "poses.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_run_evaluation_requires_poses(tmp_path):
    from fresco.config import Config
    from fresco.datasets import load_dataset
    from fresco.evaluate import run_evaluation
    from fresco.cloud import FormatError
    from conftest import write_bin

    write_bin(tmp_path / "000000.bin", np.array([[1.0, 2.0, 3.0]]))
    ds = load_dataset(tmp_path, "generic")
    with pytest.raises(FormatError, match="no pose file"):
        run_evaluation(ds, Config(), tmp_path / "out")


def test_run_evaluation_labels_against_what_the_index_could_return(tmp_path):
    """A degenerate frame is never inserted, so missing it is no FN."""
    from fresco import synth
    from fresco.config import Config
    from fresco.datasets import load_dataset
    from fresco.evaluate import run_evaluation
    from fresco.index import KeyframeIndex
    from conftest import write_bin

    def place(i):
        spec = synth.SceneSpec(seed=900 + i, pillars=14, walls=4, rings=2, range_limit=30.0)
        return synth.generate(spec).xyz

    # twelve distinct places 2 m apart; frame 5 is an empty scan
    root = tmp_path / "route"
    root.mkdir()
    for i in range(12):
        write_bin(root / f"{i:06d}.bin", np.zeros((0, 3)) if i == 5 else place(i))
    (root / "poses.csv").write_text(
        "frame,x,y,z,yaw_deg\n" + "".join(f"{i},{2.0 * i},0.0,0.0,0.0\n" for i in range(12))
    )
    dataset = load_dataset(root, "generic")
    cfg = Config(exclusion_horizon=3, tp_radius_m=8.5)
    report = run_evaluation(dataset, cfg, tmp_path / "out")
    assert report["dataset"]["degenerate_frames"] == 1

    with open(tmp_path / "out" / "matches.csv") as fh:
        rows = list(csv.DictReader(fh))
    labels = {int(r["query"]): r["label"] for r in rows}
    # frame 5 lies within 8.5 m of queries 6..9, but the index never held it,
    # and the keyframes those queries could have been given are all farther
    assert [labels[q] for q in (6, 7, 8, 9)] == ["TN"] * 4

    # only the first keyframe empty: it meets an empty index, and is flagged the same way
    write_bin(root / "000000.bin", np.zeros((0, 3)))
    write_bin(root / "000005.bin", place(5))
    report = run_evaluation(load_dataset(root, "generic"), cfg, tmp_path / "out0")
    assert report["dataset"]["degenerate_frames"] == 1
    with open(tmp_path / "out0" / "matches.csv") as fh:
        labels = {int(r["query"]): r["label"] for r in csv.DictReader(fh)}
    assert sorted(labels) == list(range(1, 12))
    assert labels[4] == "TN"  # frame 0 lies within 8.5 m, but the index never held it

    # replay the index's insertions: eligibility depends on their order only
    positions = {p.frame_id: p.position for p in dataset.poses}
    replay = KeyframeIndex(exclusion_horizon=cfg.exclusion_horizon)
    for r in rows:
        q = int(r["query"])
        match = int(r["match"]) if r["match"] else None
        accepted = (
            match is not None
            and float(r["d_l1"]) <= cfg.l1_threshold
            and float(r["d_r"]) <= cfg.cosine_threshold
        )
        want = label_match(
            q, match if accepted else None, positions, cfg.tp_radius_m, replay.eligible_ids
        )
        assert r["label"] == want, q
        replay.insert(q, np.ones((2, 2)))


def _tag_loaded_scans(monkeypatch, dataset):
    """Wrap ``evaluate.load_scan`` so that each cloud it returns is tagged with
    the frame id of its scan.  Returns the ``(cloud, frame id)`` tags, which
    a caller may extend, and the lookup from a tagged cloud to its frame."""
    import fresco.evaluate as evaluate

    frame_of = {path: fid for fid, path in dataset.scans.items()}
    tags = []  # holding every tagged cloud keeps object identity a sound tag
    true_load = evaluate.load_scan

    def loading(path):
        cloud = true_load(path)
        tags.append((cloud, frame_of[path]))
        return cloud

    monkeypatch.setattr(evaluate, "load_scan", loading)
    return tags, lambda cloud: next(fid for c, fid in tags if c is cloud)


def test_run_evaluation_describes_through_the_pipeline_module(tmp_path, monkeypatch):
    """A wrapper installed on ``fresco.pipeline.describe_preprocessed`` sees
    every keyframe exactly once."""
    import fresco.evaluate as evaluate
    from fresco import pipeline, synth
    from fresco.config import Config
    from fresco.datasets import load_dataset
    from fresco.evaluate import run_evaluation
    from conftest import write_bin

    root = tmp_path / "route"
    root.mkdir()
    for i in range(4):
        spec = synth.SceneSpec(seed=950 + i, pillars=14, walls=4, rings=2, range_limit=30.0)
        write_bin(root / f"{i:06d}.bin", synth.generate(spec).xyz)
    (root / "poses.csv").write_text(
        "frame,x,y,z,yaw_deg\n" + "".join(f"{i},{2.0 * i},0.0,0.0,0.0\n" for i in range(4))
    )
    dataset = load_dataset(root, "generic")
    tags, frame = _tag_loaded_scans(monkeypatch, dataset)
    described = []
    true_preprocess, true_describe = evaluate.preprocess, pipeline.describe_preprocessed

    def preprocessing(cloud, cfg):
        pre = true_preprocess(cloud, cfg)
        tags.append((pre, frame(cloud)))
        return pre

    def recording(pre, cfg):
        described.append(frame(pre))
        return true_describe(pre, cfg)

    monkeypatch.setattr(evaluate, "preprocess", preprocessing)
    monkeypatch.setattr(pipeline, "describe_preprocessed", recording)
    report = run_evaluation(dataset, Config(), tmp_path / "out")
    assert report["dataset"]["keyframes"] == 4
    assert sorted(described) == [0, 1, 2, 3]


def test_run_evaluation_preprocesses_each_keyframe_once_plus_once_per_candidate(
    trip_dataset, monkeypatch, tmp_path
):
    """A keyframe's one preprocessed cloud serves its descriptor and the query
    side of its pose; only the candidate of each pose is preprocessed again."""
    from collections import Counter

    import fresco.evaluate as evaluate
    import fresco.pipeline as pipeline
    from fresco.config import Config
    from fresco.datasets import load_dataset

    dataset = load_dataset(trip_dataset, "generic")
    _, frame = _tag_loaded_scans(monkeypatch, dataset)
    seen = []
    true_preprocess = pipeline.preprocess

    def recording(cloud, cfg):
        seen.append(frame(cloud))
        return true_preprocess(cloud, cfg)

    monkeypatch.setattr(pipeline, "preprocess", recording)
    monkeypatch.setattr(evaluate, "preprocess", recording)
    cfg = Config(exclusion_horizon=5)
    evaluate.run_evaluation(dataset, cfg, tmp_path)
    with open(tmp_path / "poses.csv") as fh:
        candidates = [int(r["match"]) for r in csv.DictReader(fh)]
    assert candidates  # the return leg poses against the outbound keyframes
    keyframes = sample_keyframes(dataset.poses, cfg.keyframe_spacing_m)
    assert Counter(seen) == Counter(keyframes + candidates)


@pytest.mark.parametrize("degenerate_200th", [False, True])
def test_run_evaluation_logs_progress_every_200_keyframes(tmp_path, degenerate_200th):
    """The progress line does not depend on the 200th keyframe's outcome:
    here nothing is ever eligible, so no match is accepted."""
    from fresco import synth
    from fresco.config import Config
    from fresco.datasets import load_dataset
    from fresco.evaluate import run_evaluation
    from conftest import write_bin

    root = tmp_path / "route"
    root.mkdir()
    xyz = synth.generate(synth.SceneSpec(seed=960, pillars=10, walls=2, rings=0,
                                         range_limit=30.0)).xyz
    for i in range(201):
        empty = degenerate_200th and i == 199
        write_bin(root / f"{i:06d}.bin", np.zeros((0, 3)) if empty else xyz)
    (root / "poses.csv").write_text(
        "frame,x,y,z,yaw_deg\n" + "".join(f"{i},{2.0 * i},0.0,0.0,0.0\n" for i in range(201))
    )
    lines = []
    report = run_evaluation(load_dataset(root, "generic"), Config(exclusion_horizon=1000),
                            tmp_path / "out", log=lines.append)
    assert report["dataset"]["keyframes"] == 201
    assert report["dataset"]["degenerate_frames"] == int(degenerate_200th)
    assert report["pr"]["tp"] + report["pr"]["fp"] == 0
    assert [m for m in lines if m.endswith(" keyframes") and "/" in m] == ["  200/201 keyframes"]


def test_run_evaluation_writes_a_nan_pose_for_a_structureless_match(tmp_path):
    """A revisit of a scan too sparse to register is an accepted TP with a
    NaN pose: it counts against the success rate, not in the error means."""
    from fresco import synth
    from fresco.config import Config
    from fresco.datasets import load_dataset
    from fresco.evaluate import run_evaluation
    from conftest import write_bin

    scene = synth.generate(synth.SceneSpec(seed=970, pillars=14, walls=4, rings=2,
                                           range_limit=30.0)).xyz
    # six returns, one per ground cell: a descriptor, but under ten structure points
    sparse = np.array([[3.0, 1.0], [-6.0, 4.0], [9.0, -7.0], [-2.0, -11.0], [14.0, 5.0],
                       [-15.0, -3.0]])
    sparse = np.column_stack([sparse, np.full(len(sparse), 1.5)])
    # scene, sparse, then each revisited unchanged from the same place
    root = tmp_path / "route"
    root.mkdir()
    for i, xyz in enumerate([scene, sparse, scene, sparse]):
        write_bin(root / f"{i:06d}.bin", xyz)
    (root / "poses.csv").write_text(
        "frame,x,y,z,yaw_deg\n" + "".join(f"{i},{30.0 * (i % 2)},0.0,0.0,0.0\n" for i in range(4))
    )
    report = run_evaluation(load_dataset(root, "generic"), Config(exclusion_horizon=0),
                            tmp_path / "out")

    with open(tmp_path / "out" / "matches.csv") as fh:
        labels = {int(r["query"]): (r["match"], r["label"]) for r in csv.DictReader(fh)}
    assert labels[2] == ("0", "TP") and labels[3] == ("1", "TP")
    with open(tmp_path / "out" / "poses.csv") as fh:
        rows = {int(r["query"]): r for r in csv.DictReader(fh)}
    assert sorted(rows) == [2, 3]
    nan_row = rows[3]
    assert all(nan_row[f] == "nan" for f in POSE_FIELDS[:6])
    assert (nan_row["mse"], nan_row["converged"], nan_row["success"]) == ("inf", "0", "0")
    assert rows[2]["success"] == "1"

    pose = report["pose"]
    assert pose["count"] == 2
    assert pose["success_rate"] == 0.5
    # the finite pose alone: an unchanged revisit registers to the identity
    assert np.isfinite(pose["rte_mean_m"]) and pose["rte_mean_m"] < 0.05
    assert pose["rte_std_m"] == 0.0 and pose["rre_std_deg"] == 0.0
