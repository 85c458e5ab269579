"""Pipeline entry points: the descriptor of a preprocessed cloud, and results
that do not depend on how a cloud's arrays are laid out."""

import numpy as np
import pytest

from fresco import synth
from fresco.cloud import PointCloud
from fresco.config import Config
from fresco.pipeline import describe, describe_preprocessed, preprocess


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


@pytest.mark.parametrize("seed", [61, 62])
def test_preprocess_and_describe_ignore_the_xyz_layout(seed):
    xyz, inten = _ground_scene(seed)
    rec = np.column_stack([xyz, inten])  # a loaded scan's columns are views of this
    flat, strided = PointCloud(xyz, inten), PointCloud(rec[:, :3], rec[:, 3])
    assert flat.xyz.flags.c_contiguous and not strided.xyz.flags.c_contiguous
    cfg = Config()
    a, b = preprocess(flat, cfg), preprocess(strided, cfg)
    assert 0 < len(a) < len(flat)
    np.testing.assert_array_equal(a.xyz, b.xyz)
    np.testing.assert_array_equal(a.intensity, b.intensity)
    np.testing.assert_array_equal(describe(flat, cfg), describe(strided, cfg))


def test_describe_is_describe_preprocessed_of_preprocess():
    xyz, inten = _ground_scene(63)
    cloud, cfg = PointCloud(xyz, inten), Config()
    want = describe_preprocessed(preprocess(cloud, cfg), cfg)
    np.testing.assert_array_equal(describe(cloud, cfg), want)
