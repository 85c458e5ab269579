"""Synthetic scene generator and viewpoint perturbation."""

import numpy as np
import pytest

from fresco import synth


def test_empty_spec_gives_empty_cloud():
    cloud = synth.generate(synth.SceneSpec(seed=0, pillars=0, walls=0))
    assert len(cloud) == 0


def test_pillar_geometry():
    pts = synth.pillar_points(10.0, 0.0, 5.0)
    assert (pts[:, 0] == 10.0).all()
    assert (pts[:, 1] == 0.0).all()
    assert pts[:, 2].min() == 0.0
    assert pts[:, 2].max() <= 5.0 + 1e-9
    assert len(pts) >= 25


def test_wall_geometry():
    yaw = np.radians(40.0)
    pts = synth.wall_points(3.0, -2.0, yaw, 12.0, 4.0)
    rel = pts[:, :2] - [3.0, -2.0]
    across = rel @ [-np.sin(yaw), np.cos(yaw)]
    assert np.abs(across).max() < 1e-9  # strip is planar along its direction
    along = rel @ [np.cos(yaw), np.sin(yaw)]
    assert along.min() == pytest.approx(-6.0)
    assert along.max() == pytest.approx(6.0, abs=0.3)
    assert pts[:, 2].max() <= 4.0 + 1e-9


def test_ring_geometry():
    pts = synth.ring_points(5.0, -1.0, 7.5, 3.0)
    radii = np.hypot(pts[:, 0] - 5.0, pts[:, 1] + 1.0)
    np.testing.assert_allclose(radii, 7.5, atol=1e-9)
    assert pts[:, 2].min() == 0.0
    assert pts[:, 2].max() <= 3.0 + 1e-9


def test_same_seed_is_bit_identical():
    spec = synth.SceneSpec(seed=33, pillars=20, walls=5, rings=3)
    a = synth.generate(spec)
    b = synth.generate(spec)
    np.testing.assert_array_equal(a.xyz, b.xyz)


def test_different_seeds_differ():
    a = synth.generate(synth.SceneSpec(seed=1))
    b = synth.generate(synth.SceneSpec(seed=2))
    assert a.xyz.shape != b.xyz.shape or not np.array_equal(a.xyz, b.xyz)


def test_range_limit_respected():
    cloud = synth.generate(synth.SceneSpec(seed=3, pillars=40, walls=10, rings=3, range_limit=25.0))
    assert np.hypot(cloud.xyz[:, 0], cloud.xyz[:, 1]).max() <= 25.0 + 1e-9


def test_perturb_identity_is_exact():
    cloud = synth.generate(synth.SceneSpec(seed=4))
    out = synth.perturb(cloud)
    np.testing.assert_array_equal(out.xyz, cloud.xyz)


def test_perturb_rotation_direction():
    from fresco.cloud import PointCloud

    cloud = PointCloud(xyz=np.array([[1.0, 0.0, 0.5]]))
    out = synth.perturb(cloud, yaw_deg=90.0)
    # a point ahead of a sensor that turned left ends up to the sensor's right
    np.testing.assert_allclose(out.xyz[0], [0.0, -1.0, 0.5], atol=1e-12)


def test_perturb_round_trip():
    cloud = synth.generate(synth.SceneSpec(seed=5, pillars=15, walls=4, rings=1))
    tx, ty, yaw = 2.0, -1.5, 35.0
    moved = synth.perturb(cloud, tx, ty, yaw)
    # inverse viewpoint: rotate back, then undo the translation in the new frame
    r = np.radians(yaw)
    c, s = np.cos(r), np.sin(r)
    inv_t = -np.array([[c, s], [-s, c]]) @ [tx, ty]
    back = synth.perturb(moved, float(inv_t[0]), float(inv_t[1]), -yaw)
    np.testing.assert_allclose(back.xyz, cloud.xyz, atol=1e-9)


def test_occlusion_blanks_the_sector():
    cloud = synth.generate(synth.SceneSpec(seed=6, pillars=30, walls=8, rings=2))
    out = synth.perturb(cloud, occlusion=(0.0, 71.0))
    bearings = np.degrees(np.arctan2(out.xyz[:, 1], out.xyz[:, 0])) % 360.0
    assert len(out) > 0
    assert not ((bearings >= 0.0) & (bearings < 71.0)).any()
    # sector wrapping around 360 works too
    wrapped = synth.perturb(cloud, occlusion=(330.0, 60.0))
    b = np.degrees(np.arctan2(wrapped.xyz[:, 1], wrapped.xyz[:, 0])) % 360.0
    assert not ((b >= 330.0) | (b < 30.0)).any()


def test_generate_applies_occlusion():
    spec = synth.SceneSpec(seed=7, pillars=30, walls=8, rings=2, occlusion=(45.0, 90.0))
    cloud = synth.generate(spec)
    bearings = np.degrees(np.arctan2(cloud.xyz[:, 1], cloud.xyz[:, 0])) % 360.0
    assert not ((bearings >= 45.0) & (bearings < 135.0)).any()

