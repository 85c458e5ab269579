"""Release gates.

Each test exercises one shipping requirement end to end and prints a
single PASS/FAIL line with the measured margin (visible under ``pytest -s``
or ``-rA``).  The two dataset-scale gates run against a KITTI odometry
sequence 08 checkout when FRESCO_KITTI08_ROOT points at one and skip
otherwise; a synthetic stand-in for the determinism gate always runs.
"""

import os
import time

import numpy as np
import pytest

from fresco import properties, synth
from fresco.config import Config
from fresco.datasets import load_dataset
from fresco.evaluate import run_evaluation
from fresco.index import KeyframeIndex, make_key
from fresco.matching import best_shift_l1
from fresco.pipeline import describe, preprocess, relative_pose, stage1_pose

KITTI_ENV = "FRESCO_KITTI08_ROOT"


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _kitti_root() -> str:
    root = os.environ.get(KITTI_ENV)
    if not root:
        pytest.skip(f"{KITTI_ENV} not set; point it at a KITTI sequence 08 root to run this gate")
    return root


def test_spectrum_is_translation_invariant():
    rng = np.random.default_rng(101)
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(100):
        img = rng.uniform(0.0, 10.0, (128, 128))
        dr = int(rng.integers(0, 128))
        dc = int(rng.integers(0, 128))
        worst = max(worst, properties.translation_deviation(img, dr, dc))
    dt = time.perf_counter() - t0
    _verdict(
        "translation invariance",
        worst <= properties.TRANSLATION_RTOL and dt < 10.0,
        f"worst relative deviation {worst:.2e} over 100 image/shift pairs in {dt:.1f}s",
    )


def test_rotation_recovered_within_three_degrees():
    cfg = Config()
    rng = np.random.default_rng(1)
    hits = 0
    t0 = time.perf_counter()
    for t in range(200):
        spec = synth.SceneSpec(
            seed=3000 + t,
            pillars=int(rng.integers(20, 46)),
            walls=int(rng.integers(2, 10)),
            rings=int(rng.integers(1, 4)),
            range_limit=30.0,
        )
        scene = synth.generate(spec)
        yaw = float(rng.uniform(0.0, 360.0))
        turned = synth.perturb(scene, yaw_deg=yaw)
        hits += properties.rotation_recovered(describe(turned, cfg), describe(scene, cfg), yaw)
    dt = time.perf_counter() - t0
    _verdict(
        "rotation recovery",
        hits >= 190 and dt < 60.0,
        f"{hits}/200 recovered within 3 deg (mod 180) in {dt:.1f}s",
    )


def test_retrieval_matches_a_linear_scan_exactly():
    rng = np.random.default_rng(7)
    mismatches = 0
    for size in (10, 100, 1000):
        # each descriptor recurs about 4 times, so tied keys straddle the 20th place;
        # a random half, tiled, as the index stores only what repeats after half its width
        pool = np.tile(rng.uniform(0.1, 1.1, (max(size // 4, 1), 8, 6)), 2)
        descs = pool[rng.integers(0, len(pool), size)]
        keys = np.array([make_key(d) for d in descs])
        idx = KeyframeIndex(exclusion_horizon=0)
        for i, d in enumerate(descs):
            idx.insert(i, d)
        for t in range(50):
            q = pool[t % len(pool)] if t % 2 else rng.uniform(0.1, 1.1, (8, 12))
            got = [fid for fid, _ in idx.retrieve(q, 20)]
            mismatches += got != properties.linear_scan(keys, make_key(q), 20)
    _verdict(
        "retrieval exactness",
        mismatches == 0,
        f"{mismatches} of 150 queries diverged from the linear scan across sizes 10/100/1000",
    )


def test_rank_one_retrieval_survives_combined_perturbation():
    cfg = Config()
    rng = np.random.default_rng(0)

    def draw(seed: int) -> synth.SceneSpec:
        return synth.SceneSpec(
            seed=seed,
            pillars=int(rng.integers(6, 46)),
            walls=int(rng.integers(2, 19)),
            rings=int(rng.integers(1, 5)),
            range_limit=30.0,
        )

    idx = KeyframeIndex(exclusion_horizon=0)
    t0 = time.perf_counter()
    for i in range(100):
        idx.insert(i, describe(synth.generate(draw(10000 + i)), cfg))
    hits = 0
    for t in range(100):
        target = synth.generate(draw(20000 + t))
        idx.insert(1000 + t, describe(target, cfg))
        ang = float(rng.uniform(0.0, 2.0 * np.pi))
        mag = float(rng.uniform(0.0, 10.0))
        yaw = float(rng.uniform(0.0, 360.0))
        occ_start = float(rng.uniform(0.0, 360.0))
        query = synth.perturb(
            target,
            tx=mag * np.cos(ang),
            ty=mag * np.sin(ang),
            yaw_deg=yaw,
            occlusion=(occ_start, 71.0),
        )
        res = idx.match(describe(query, cfg), cfg.num_candidates, np.inf, np.inf)
        hits += res.candidate_id == 1000 + t
    dt = time.perf_counter() - t0
    _verdict(
        "retrieval under perturbation",
        hits >= 90,
        f"{hits}/100 rank-1 hits against 100+ distractors "
        f"(<=10m offset, any yaw, 71 deg occlusion) in {dt:.1f}s",
    )


def test_planar_pose_within_tenth_meter_and_degree():
    cfg = Config()
    rng = np.random.default_rng(2)
    hits = 0
    t0 = time.perf_counter()
    for t in range(200):
        spec = synth.SceneSpec(
            seed=5000 + t,
            pillars=int(rng.integers(10, 40)),
            walls=int(rng.integers(6, 19)),
            rings=int(rng.integers(1, 5)),
            range_limit=30.0,
        )
        scene = synth.generate(spec)
        tx, ty = (float(v) for v in rng.uniform(-3.0, 3.0, 2))
        yaw = float(rng.uniform(0.0, 360.0))
        moved = synth.perturb(scene, tx=tx, ty=ty, yaw_deg=yaw)
        shift = best_shift_l1(describe(moved, cfg), describe(scene, cfg)).best_shift
        est = stage1_pose(moved, scene, shift, cfg)
        # the estimate maps mover points into scene frame, which is exactly
        # the viewpoint the perturbed copy was re-observed from
        hits += properties.pose_recovered(est, tx, ty, yaw)
    dt = time.perf_counter() - t0
    _verdict(
        "planar pose accuracy",
        hits >= 190,
        f"{hits}/200 within 0.1m and 1 deg (offsets to 3m, any yaw, "
        f"both heading branches) in {dt:.1f}s",
    )


def test_city_scale_loop_closure(tmp_path):
    root = _kitti_root()
    dataset = load_dataset(root, "kitti")
    t0 = time.perf_counter()
    report = run_evaluation(dataset, Config(), tmp_path / "kitti")
    dt = time.perf_counter() - t0
    pr = report["pr"]
    pose = report["pose"] or {}
    ok = (
        pr["max_f1"] >= 0.78
        and pose.get("rte_mean_m", np.inf) <= 0.40
        and pose.get("rre_mean_deg", np.inf) <= 0.80
        and pose.get("success_rate", 0.0) >= 0.90
        and dt < 1800.0
    )
    _verdict(
        "city-scale loop closure",
        ok,
        f"max F1 {pr['max_f1']:.3f}, RTE {pose.get('rte_mean_m', np.inf):.3f}m, "
        f"RRE {pose.get('rre_mean_deg', np.inf):.3f} deg, "
        f"success {pose.get('success_rate', 0.0):.3f} in {dt / 60.0:.1f} min",
    )


def test_per_stage_runtime_budgets():
    cfg = Config()
    scene = synth.generate(synth.SceneSpec(seed=77, pillars=30, walls=6, rings=2))
    describe(scene, cfg)  # warm caches before timing
    t0 = time.perf_counter()
    for _ in range(20):
        describe(scene, cfg)
    ms_desc = (time.perf_counter() - t0) / 20 * 1e3

    rng = np.random.default_rng(3)
    idx = KeyframeIndex(exclusion_horizon=0)
    for i in range(1000):  # random halves, tiled; the queries need not repeat
        idx.insert(i, np.tile(rng.uniform(0.05, 1.05, (32, 60)), 2))
    queries = [rng.uniform(0.05, 1.05, (32, 120)) for _ in range(50)]
    t0 = time.perf_counter()
    for q in queries:
        idx.match(q, cfg.num_candidates, np.inf, np.inf)
    ms_match = (time.perf_counter() - t0) / 50 * 1e3

    moved = synth.perturb(scene, tx=1.5, ty=-1.0, yaw_deg=30.0)
    shift = best_shift_l1(describe(moved, cfg), describe(scene, cfg)).best_shift
    stage1_pose(moved, scene, shift, cfg)  # warm
    t0 = time.perf_counter()
    for _ in range(10):
        stage1_pose(moved, scene, shift, cfg)
    ms_pose = (time.perf_counter() - t0) / 10 * 1e3

    pre_moved, pre_scene = preprocess(moved, cfg), preprocess(scene, cfg)
    relative_pose(pre_moved, pre_scene, shift, cfg)  # warm
    t0 = time.perf_counter()
    for _ in range(10):
        relative_pose(pre_moved, pre_scene, shift, cfg)
    ms_both = (time.perf_counter() - t0) / 10 * 1e3

    ok = ms_desc <= 60.0 and ms_match <= 20.0 and ms_pose <= 300.0 and ms_both <= 200.0
    _verdict(
        "runtime budgets",
        ok,
        f"descriptor {ms_desc:.1f}ms (<=60), retrieval+match {ms_match:.1f}ms (<=20), "
        f"planar pose {ms_pose:.1f}ms (<=300), two-stage pose {ms_both:.1f}ms (<=200)",
    )


def test_evaluation_is_bit_reproducible(loop_dataset, tmp_path):
    dataset = load_dataset(loop_dataset, "generic")
    cfg = Config()
    run_evaluation(dataset, cfg, tmp_path / "one")
    run_evaluation(dataset, cfg, tmp_path / "two")
    same = (tmp_path / "one" / "matches.csv").read_bytes() == (
        tmp_path / "two" / "matches.csv"
    ).read_bytes()
    _verdict(
        "reproducible evaluation",
        same,
        "matches.csv byte-identical across two synthetic-loop runs",
    )


def test_city_scale_evaluation_is_bit_reproducible(tmp_path):
    root = _kitti_root()
    dataset = load_dataset(root, "kitti")
    cfg = Config()
    run_evaluation(dataset, cfg, tmp_path / "one")
    run_evaluation(dataset, cfg, tmp_path / "two")
    same = (tmp_path / "one" / "matches.csv").read_bytes() == (
        tmp_path / "two" / "matches.csv"
    ).read_bytes()
    _verdict(
        "reproducible city-scale evaluation",
        same,
        "matches.csv byte-identical across two full runs",
    )
