"""Pipeline entry points: the descriptor of a preprocessed cloud, and results
that do not depend on how a cloud's arrays are laid out."""

from dataclasses import astuple

import numpy as np
import pytest

from fresco import synth
from fresco.cloud import PointCloud
from fresco.config import Config
from fresco.matching import best_shift_l1
from fresco.pipeline import describe, describe_preprocessed, preprocess, relative_pose


def _ground_scene(seed):
    """Structure on a ground that reaches past the window, plus out-of-band
    returns, with a reflectance per point."""
    rng = np.random.default_rng(seed)
    scene = synth.generate(synth.SceneSpec(seed=seed, pillars=16, walls=4, rings=1))
    r = rng.uniform(1.0, 60.0, 8000)
    a = rng.uniform(0.0, 2.0 * np.pi, r.size)
    ground = np.column_stack([r * np.cos(a), r * np.sin(a), rng.normal(-1.73, 0.02, r.size)])
    stray = [[3.0, 4.0, -7.5], [-5.0, 2.0, 33.0]]
    xyz = np.vstack([scene.xyz, ground, stray])
    return xyz, rng.uniform(0.0, 1.0, len(xyz))


def _layouts(xyz, inten):
    """The same points as a row-major array, as strided views of the columns
    of an (n, 4) record array a caller may hold, and as a column-major array."""
    rec = np.column_stack([xyz, inten])
    return {
        "rows": PointCloud(np.ascontiguousarray(xyz), inten),
        "records": PointCloud(rec[:, :3], rec[:, 3]),
        "columns": PointCloud(np.asfortranarray(xyz), inten),
    }


@pytest.mark.parametrize("seed", [61, 62])
def test_preprocess_and_describe_ignore_the_xyz_layout(seed):
    xyz, inten = _ground_scene(seed)
    moved = synth.perturb(PointCloud(xyz, inten), tx=0.6, ty=-0.4, yaw_deg=12.0)
    scenes = _layouts(xyz, inten)
    views = _layouts(moved.xyz, moved.intensity)
    cfg = Config(stage2=True)
    for cloud in (*scenes.values(), *views.values()):
        assert cloud.xyz.flags.f_contiguous
    shift = best_shift_l1(describe(views["rows"], cfg), describe(scenes["rows"], cfg)).best_shift
    want_pre = preprocess(scenes["rows"], cfg)
    assert 0 < len(want_pre) < len(scenes["rows"])
    want_desc = describe(scenes["rows"], cfg)
    want_pose = relative_pose(preprocess(views["rows"], cfg), want_pre, shift, cfg)
    for name in ("records", "columns"):
        pre = preprocess(scenes[name], cfg)
        np.testing.assert_array_equal(pre.xyz, want_pre.xyz, err_msg=name)
        np.testing.assert_array_equal(pre.intensity, want_pre.intensity, err_msg=name)
        np.testing.assert_array_equal(describe(scenes[name], cfg), want_desc, err_msg=name)
        got = relative_pose(preprocess(views[name], cfg), pre, shift, cfg)
        assert astuple(got) == astuple(want_pose), name


def test_describe_is_describe_preprocessed_of_preprocess():
    xyz, inten = _ground_scene(63)
    cloud, cfg = PointCloud(xyz, inten), Config()
    want = describe_preprocessed(preprocess(cloud, cfg), cfg)
    np.testing.assert_array_equal(describe(cloud, cfg), want)
