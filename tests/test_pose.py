"""Planar alignment, its 180-degree disambiguation, and the 3D refinement."""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fresco import pose as pose_mod
from fresco import synth
from fresco.cloud import PointCloud
from fresco.pose import (
    Compact2dCloud,
    InsufficientStructureError,
    Se2Pose,
    alignment_mse_3d,
    estimate_pose_stage1,
    extract_compact_2d,
    matrix_to_se3,
    nicp_2d,
    refine_pose_3d,
    rot2,
    se2_to_matrix,
    shift_to_rotation,
    transform_xy,
    wrap_angle,
)


def _scene(seed, **kw):
    spec = synth.SceneSpec(seed=seed, **{"pillars": 20, "walls": 8, "rings": 2, **kw})
    return synth.generate(spec)


def _compact(cloud) -> Compact2dCloud:
    return extract_compact_2d(cloud)


def _moved_copy(c: Compact2dCloud, tx, ty, yaw) -> Compact2dCloud:
    return Compact2dCloud(
        points=transform_xy(c.points, tx, ty, yaw),
        normals=c.normals @ rot2(yaw).T,
    )


def test_shift_to_rotation_values():
    assert shift_to_rotation(0, 120) == 0.0
    assert shift_to_rotation(30, 120) == 90.0
    assert shift_to_rotation(17, 120) == pytest.approx(51.0)


def test_shift_to_rotation_is_linear():
    a = shift_to_rotation(7, 120) + shift_to_rotation(11, 120)
    assert shift_to_rotation(18, 120) == pytest.approx(a)


def test_wrap_angle_range():
    for a in (-np.pi, np.pi, 0.0, 3 * np.pi, -2.5 * np.pi, 1.0):
        w = wrap_angle(a)
        assert -np.pi < w <= np.pi
        assert np.cos(w) == pytest.approx(np.cos(a), abs=1e-12)
        assert np.sin(w) == pytest.approx(np.sin(a), abs=1e-12)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)


def test_se2_matrix_round_trip():
    pose = Se2Pose(tx=1.5, ty=-2.0, yaw=0.7)
    back = matrix_to_se3(se2_to_matrix(pose))
    assert back.tx == pytest.approx(1.5)
    assert back.ty == pytest.approx(-2.0)
    assert back.yaw == pytest.approx(0.7)
    assert back.tz == pytest.approx(0.0)
    assert back.roll == pytest.approx(0.0)
    assert back.pitch == pytest.approx(0.0)


def test_matrix_to_se3_recovers_euler_angles():
    yaw, pitch, roll = 0.4, -0.2, 0.1
    cz, sz = np.cos(yaw), np.sin(yaw)
    cy, sy = np.cos(pitch), np.sin(pitch)
    cx, sx = np.cos(roll), np.sin(roll)
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    m = np.eye(4)
    m[:3, :3] = rz @ ry @ rx
    pose = matrix_to_se3(m)
    assert pose.yaw == pytest.approx(yaw)
    assert pose.pitch == pytest.approx(pitch)
    assert pose.roll == pytest.approx(roll)


def test_extract_rejects_tiny_clouds():
    with pytest.raises(InsufficientStructureError):
        extract_compact_2d(PointCloud(xyz=np.zeros((0, 3))))
    with pytest.raises(InsufficientStructureError):
        extract_compact_2d(PointCloud(xyz=np.random.default_rng(0).uniform(0, 1, (5, 3))))


def test_extract_wall_normals_perpendicular():
    yaw = np.radians(30.0)
    cloud = PointCloud(xyz=synth.wall_points(-4.0, 2.0, yaw, 25.0, 6.0))
    compact = extract_compact_2d(cloud)
    along = np.array([np.cos(yaw), np.sin(yaw)])
    # every normal is perpendicular to the wall direction, up to sign
    dots = np.abs(compact.normals @ along)
    assert dots.max() < np.sin(np.radians(5.0))
    # and the projected points are collinear along the wall
    centered = compact.points - compact.points.mean(axis=0)
    ev = np.linalg.eigvalsh(centered.T @ centered / len(centered))
    assert ev[0] < 1e-3 * ev[1]


def test_extract_downsampling_leaves_one_point_per_voxel():
    compact = extract_compact_2d(_scene(50, pillars=40))
    # oracle recount: no two output points share a 0.4 m voxel
    keys = {tuple(k) for k in np.floor(compact.points / 0.4).astype(int).tolist()}
    assert len(keys) == len(compact.points)


def test_nicp_identity():
    c = _compact(_scene(51))
    pose = nicp_2d(c, c, 0.0)
    assert np.hypot(pose.tx, pose.ty) < 1e-6
    assert abs(pose.yaw) < 1e-6
    assert pose.mse < 1e-9
    assert pose.converged


def test_nicp_recovers_known_offset():
    src = _compact(_scene(52))
    tx, ty, yaw = 1.5, -0.8, np.radians(20.0)
    dst = _moved_copy(src, tx, ty, yaw)
    pose = nicp_2d(src, dst, yaw_init=np.radians(20.0))
    assert np.hypot(pose.tx - tx, pose.ty - ty) < 0.05
    assert abs(wrap_angle(pose.yaw - yaw)) < np.radians(0.5)
    assert pose.converged


def test_nicp_wrong_seed_scores_worse():
    src = _compact(_scene(53))
    dst = _moved_copy(src, 1.0, 0.5, np.radians(20.0))
    good = nicp_2d(src, dst, yaw_init=np.radians(20.0))
    bad = nicp_2d(src, dst, yaw_init=np.radians(200.0))
    assert good.mse < bad.mse


def test_nicp_objective_never_rises_within_a_step():
    src = _compact(_scene(54))
    dst = _moved_copy(src, 2.0, -1.0, np.radians(15.0))
    # fixed gate so recorded pairs are comparable across the trace
    pose = nicp_2d(src, dst, yaw_init=0.2, gate_start_m=3.0, gate_end_m=3.0)
    assert pose.trace
    for before, after in pose.trace:
        assert after <= before + 1e-12


def test_stage1_identity():
    c = _compact(_scene(55))
    pose = estimate_pose_stage1(c, c, 0, 120)
    assert np.hypot(pose.tx, pose.ty) < 1e-6
    assert abs(pose.yaw) < 1e-6
    assert pose.branch == 0


def test_stage1_resolves_180_ambiguity():
    src = _compact(_scene(56))
    yaw = np.radians(170.0)
    dst = _moved_copy(src, 2.0, 1.0, yaw)
    # the descriptor can only say "170 or -10"; feed the wrong-by-180 shift too
    shift = int(round(170.0 / 3.0)) % 60
    pose = estimate_pose_stage1(src, dst, shift, 120)
    assert abs(wrap_angle(pose.yaw - yaw)) < np.radians(1.0)
    assert np.hypot(pose.tx - 2.0, pose.ty - 1.0) < 0.1
    assert pose.branch in (0, 1)


def test_refine_identity():
    cloud = _scene(57)
    pose = refine_pose_3d(cloud, cloud, Se2Pose(0.0, 0.0, 0.0))
    assert np.hypot(pose.tx, pose.ty) < 1e-6
    assert abs(pose.tz) < 1e-6
    assert pose.mse < 1e-9
    assert pose.success


def test_refine_recovers_vertical_offset_and_fixes_planar_seed():
    # z is only observable against horizontal structure, so give the scene a
    # ground slab alongside the pillars and walls
    scene = _scene(58, pillars=20, walls=6, rings=0)
    g = np.arange(-14.0, 14.0 + 1e-9, 0.4)
    gx, gy = np.meshgrid(g, g)
    slab = np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, -1.7)])
    cloud = PointCloud(xyz=np.vstack([scene.xyz, slab]))
    yaw = np.radians(25.0)
    cz, sz = np.cos(yaw), np.sin(yaw)
    r = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1.0]])
    t = np.array([0.5, -0.3, 0.15])
    moved = PointCloud(xyz=cloud.xyz @ r.T + t)
    # seed off by (0.1, 0.1, 1 deg); the refiner owes us the correction
    est = refine_pose_3d(cloud, moved, Se2Pose(0.4, -0.2, np.radians(24.0)))
    assert est.converged and est.success
    assert np.hypot(est.tx - t[0], est.ty - t[1]) < 0.05
    assert abs(est.tz - t[2]) < 0.05
    assert abs(wrap_angle(est.yaw - yaw)) < np.radians(0.3)
    assert abs(est.roll) < np.radians(0.3)
    assert abs(est.pitch) < np.radians(0.3)
    assert est.mse < 0.05


def test_refine_improves_a_perturbed_seed():
    cloud = _scene(59)
    yaw = np.radians(30.0)
    moved = PointCloud(xyz=transform_3d(cloud.xyz, 1.0, 0.5, yaw))
    seed = Se2Pose(1.3, 0.2, yaw + np.radians(5.0))
    before = alignment_mse_3d(cloud, moved, se2_to_matrix(seed), gate_m=2.0)
    est = refine_pose_3d(cloud, moved, seed)
    after = alignment_mse_3d(cloud, moved, se3_to_matrix_4x4(est), gate_m=2.0)
    assert after <= before


def transform_3d(xyz, tx, ty, yaw):
    out = xyz.copy()
    out[:, :2] = transform_xy(xyz[:, :2], tx, ty, yaw)
    return out


def se3_to_matrix_4x4(pose):
    m = se2_to_matrix(Se2Pose(pose.tx, pose.ty, pose.yaw))
    m[2, 3] = pose.tz
    return m


def test_alignment_mse_obeys_the_gate():
    cloud = _scene(60)
    # misaligned by more than the gate: nothing matches, mse is inf
    m = se2_to_matrix(Se2Pose(50.0, 50.0, 0.0))
    assert alignment_mse_3d(cloud, cloud, m, gate_m=0.5) == np.inf
    assert alignment_mse_3d(cloud, cloud, np.eye(4)) == pytest.approx(0.0, abs=1e-12)


def _voxel_centroids_by_row_unique(pts, voxel):
    """The former voxel grid, kept as the oracle: a row-wise np.unique."""
    keys = np.floor(pts / voxel).astype(np.int64)
    _, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    dim = pts.shape[1]
    sums = np.zeros((counts.shape[0], dim))
    for d in range(dim):
        sums[:, d] = np.bincount(inverse, weights=pts[:, d])
    return sums / counts[:, None]


_VOXELS = st.sampled_from([0.25, 0.4, 0.5, 1.0])


@st.composite
def _voxel_inputs(draw):
    """Points mixing arbitrary negative and positive coordinates with exact
    voxel boundaries, with some rows repeated."""
    voxel = draw(_VOXELS)
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(0, 60))
    coord = st.one_of(
        st.floats(-60.0, 60.0, allow_nan=False, allow_infinity=False),
        st.integers(-40, 40).map(lambda k: k * voxel),
    )
    pts = draw(arrays(np.float64, (n, dim), elements=coord))
    if n:
        repeat = draw(st.lists(st.integers(0, n - 1), max_size=n))
        pts = np.vstack([pts, pts[repeat]])
    return pts, voxel


@settings(max_examples=200, deadline=None)
@given(_voxel_inputs())
def test_voxel_centroids_equal_the_row_unique_oracle(case):
    pts, voxel = case
    got = pose_mod._voxel_centroids(pts, voxel)
    want = _voxel_centroids_by_row_unique(pts, voxel)
    assert got.shape == want.shape == (want.shape[0], pts.shape[1])
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dim", [2, 3])
def test_voxel_centroids_of_nothing_keep_the_dimension(dim):
    assert pose_mod._voxel_centroids(np.empty((0, dim)), 0.4).shape == (0, dim)


@pytest.mark.parametrize("dim", [2, 3])
def test_voxel_centroids_lexsort_fallback_on_huge_spans(dim):
    rng = np.random.default_rng(dim)
    pts = rng.uniform(-1e6, 1e6, (300, dim))
    pts[:, 0] = np.round(pts[:, 0], -5)  # shared leading keys
    pts = np.vstack([pts, pts[:50]])
    voxel = 1e-6
    keys = np.floor(pts / voxel).astype(np.int64)
    spans = keys.max(axis=0) - keys.min(axis=0) + 1
    assert np.prod(spans.astype(float)) > np.iinfo(np.int64).max
    np.testing.assert_array_equal(
        pose_mod._voxel_centroids(pts, voxel), _voxel_centroids_by_row_unique(pts, voxel)
    )


def _revisit_pair(seed):
    """A synth scene and its re-observation 0.8 m and 30 degrees away; the
    query-to-candidate pose is (0.8, -0.5, 30 degrees)."""
    scene = _scene(seed)
    return synth.perturb(scene, tx=0.8, ty=-0.5, yaw_deg=30.0), scene


_SEEDS = {
    "converged": Se2Pose(0.8, -0.5, np.radians(31.0)),
    "pass-through": Se2Pose(0.0, 0.0, np.radians(210.0)),
}


@pytest.mark.parametrize("case", sorted(_SEEDS))
def test_pose_layer_equals_the_row_unique_voxel_grid(case, monkeypatch):
    query, cand = _revisit_pair(71)
    init = _SEEDS[case]
    shipped = (
        astuple(refine_pose_3d(query, cand, init)),
        alignment_mse_3d(query, cand, se2_to_matrix(init)),
        extract_compact_2d(query),
    )
    monkeypatch.setattr(pose_mod, "_voxel_centroids", _voxel_centroids_by_row_unique)
    oracle = (
        astuple(refine_pose_3d(query, cand, init)),
        alignment_mse_3d(query, cand, se2_to_matrix(init)),
        extract_compact_2d(query),
    )
    assert shipped[0] == oracle[0]
    assert shipped[0][7] == (case == "converged")  # converged field
    assert shipped[1] == oracle[1]
    np.testing.assert_array_equal(shipped[2].points, oracle[2].points)
    np.testing.assert_array_equal(shipped[2].normals, oracle[2].normals)


@pytest.mark.parametrize("seed", [72, 73])
def test_refine_pass_through_reports_the_seed_alignment_mse(seed):
    query, cand = _revisit_pair(seed)
    init = _SEEDS["pass-through"]
    est = refine_pose_3d(query, cand, init, voxel_m=0.4)
    assert not est.converged
    assert est.mse == alignment_mse_3d(query, cand, se2_to_matrix(init), 0.4)
    assert (est.tx, est.ty) == (init.tx, init.ty)


# dyadic coordinates, one point per voxel: every distance below is exact
_GRID = np.array([[4.0 * i, 4.0 * j, 0.25 * (i + j)] for i in range(4) for j in range(3)])
_AT_GATE = np.array([0.5, 0.0, 0.0])  # exactly the 0.5 m gate away


def test_alignment_mse_counts_a_neighbor_exactly_at_the_gate():
    query, cand = PointCloud(_GRID), PointCloud(_GRID + _AT_GATE)
    assert alignment_mse_3d(query, cand, np.eye(4), gate_m=0.5) == 0.25
    assert alignment_mse_3d(query, cand, np.eye(4), gate_m=0.4999) == np.inf


def test_refine_seed_mse_counts_a_neighbor_exactly_at_the_gate():
    query, cand = PointCloud(_GRID), PointCloud(_GRID + _AT_GATE)
    init = Se2Pose(0.0, 0.0, 0.0)
    # no iterations: the seed passes through with the seed query's mse
    est = refine_pose_3d(query, cand, init, max_iters=0, gate_start_m=0.5, gate_end_m=0.5)
    assert est.mse == 0.25
    assert not est.converged


def test_nicp_final_mse_counts_a_neighbor_exactly_at_the_gate():
    pts = _GRID[:, :2]
    normals = np.tile([1.0, 0.0], (len(pts), 1))
    src = Compact2dCloud(pts, normals)
    dst = Compact2dCloud(pts + _AT_GATE[:2], normals)
    est = nicp_2d(src, dst, 0.0, max_iters=0, gate_start_m=0.5, gate_end_m=0.5)
    assert est.mse == 0.25


def _cap_per_cell_by_loop(cells, cap):
    """The former per-cell loop, kept as the oracle: split the stable sort by
    cell, then keep each big cell's rounded np.linspace picks."""
    order = np.argsort(cells, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(cells[order])) + 1) if order.size else []
    chosen = [np.empty(0, dtype=np.int64)]
    for g in groups:
        if g.size <= cap:
            chosen.append(g)
        else:
            pick = np.linspace(0, g.size - 1, cap).round().astype(np.int64)
            chosen.append(g[np.unique(pick)])
    return np.concatenate(chosen)


@pytest.mark.parametrize("cap", [1, 2, 3, 10])
@settings(max_examples=100, deadline=None)
@given(cells=arrays(np.int64, st.integers(0, 400), elements=st.integers(0, 12)))
def test_cell_cap_equals_the_per_cell_loop(cap, cells):
    got = pose_mod._cap_per_cell(cells, cap)
    np.testing.assert_array_equal(got, _cap_per_cell_by_loop(cells, cap))
    assert np.bincount(cells[got], minlength=13).max(initial=0) <= cap


@pytest.mark.parametrize("cap", [1, 2, 3, 10])
def test_cell_cap_equals_the_per_cell_loop_at_every_cell_size(cap):
    sizes = np.r_[np.arange(1, 600), 100_003, 2**20 + 1]
    cells = np.repeat(np.arange(len(sizes))[::-1], sizes)
    np.testing.assert_array_equal(
        pose_mod._cap_per_cell(cells, cap), _cap_per_cell_by_loop(cells, cap)
    )


@pytest.mark.parametrize("cap", [1, 2, 3, 10])
def test_compact_cloud_equals_the_per_cell_loop(cap, monkeypatch):
    scene = _scene(74)
    shipped = extract_compact_2d(scene, cell_cap=cap)
    monkeypatch.setattr(pose_mod, "_cap_per_cell", _cap_per_cell_by_loop)
    oracle = extract_compact_2d(scene, cell_cap=cap)
    np.testing.assert_array_equal(shipped.points, oracle.points)
    np.testing.assert_array_equal(shipped.normals, oracle.normals)
