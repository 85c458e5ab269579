"""Planar alignment, its 180-degree disambiguation, and the 3D refinement."""

from contextlib import nullcontext
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import cKDTree

from fresco import pose as pose_mod
from fresco import properties, synth
from fresco.cloud import PointCloud
from fresco.config import Config
from fresco.matching import best_shift_l1
from fresco.pipeline import compact_2d, describe, planar_pose, preprocess, relative_pose
from fresco.pose import (
    STAGE2_GATE_END_M,
    STAGE2_GATE_START_M,
    STAGE2_MAX_ITERS,
    STAGE2_QUERY_POINTS,
    STAGE2_SUCCESS_MSE,
    Compact2dCloud,
    InsufficientStructureError,
    Se2Pose,
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


def _stage2_sample(centroids, budget=STAGE2_QUERY_POINTS):
    """The query centroids stage 2 registers: every one up to ``budget``,
    else the ``budget`` rows at ``np.linspace(0, n - 1, budget).round()``."""
    n = len(centroids)
    if n <= budget:
        return centroids
    return centroids[np.linspace(0, n - 1, budget).round().astype(np.int64)]


def _alignment_mse_3d(query, candidate, matrix, voxel_m=0.4, gate_m=0.5):
    """The former ``pose.alignment_mse_3d``, kept as the oracle: mean squared
    nearest-neighbor distance from stage 2's sampled query centroids to the
    candidate's voxel centroids under ``matrix``, over correspondences within
    ``gate_m``; inf when none are."""
    a = _stage2_sample(pose_mod._voxel_centroids(query.xyz, voxel_m))
    b = pose_mod._voxel_centroids(candidate.xyz, voxel_m)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.inf
    dist, _ = pose_mod._query_within(cKDTree(b), a @ matrix[:3, :3].T + matrix[:3, 3], gate_m)
    return pose_mod._gated_mse(dist, gate_m)


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


def _sliver_case(lift_m, offset_m):
    """Twelve points along the x axis, each lifted ``lift_m * s`` off it
    (s = +-1, uncorrelated with x), matched to a copy moved ``-offset_m * s``
    along x whose normals all point along x.  Each residual follows its
    point's lift, so the Gauss-Newton step is a pure yaw of
    ``offset_m / lift_m`` rad, and its linear model ignores how far that
    yaw swings the points at the ends.  Returns the clouds and the
    objective after a yaw ``dyaw``."""
    x = np.linspace(-5.0, 5.0, 12)
    s = np.array([1.0, -1.0, -1.0, 1.0] * 3)
    normals = np.tile([1.0, 0.0], (12, 1))
    src = Compact2dCloud(np.column_stack([x, lift_m * s]), normals)
    dst = Compact2dCloud(np.column_stack([x - offset_m * s, lift_m * s]), normals)

    def objective(dyaw):
        return float(((transform_xy(src.points, 0.0, 0.0, dyaw) - dst.points)[:, 0] ** 2).mean())

    return src, dst, objective


def test_nicp_halves_a_step_that_would_raise_the_objective():
    src, dst, objective = _sliver_case(0.04, 0.01)  # Gauss-Newton step: yaw 0.25 rad
    before = objective(0.0)
    assert objective(0.25) > before and objective(0.125) > before
    assert objective(0.0625) <= before  # the second halving is the first that helps
    pose = nicp_2d(src, dst, 0.0, max_iters=1)
    assert pose.yaw == pytest.approx(0.0625, rel=1e-9)
    assert abs(pose.tx) < 1e-12 and pose.ty == 0.0
    assert pose.trace == [(pytest.approx(before), pytest.approx(objective(0.0625)))]


def test_nicp_stops_at_the_seed_when_no_halved_step_helps():
    src, dst, objective = _sliver_case(1e-3, 0.05)  # Gauss-Newton step: yaw 50 rad
    before = objective(0.0)
    assert all(objective(50.0 / 2**h) > before for h in range(pose_mod._STEP_HALVINGS))
    pose = nicp_2d(src, dst, 0.0)
    assert (pose.tx, pose.ty, pose.yaw) == (0.0, 0.0, 0.0)
    assert pose.trace == [] and not pose.converged


def test_stage1_identity():
    c = _compact(_scene(55))
    # shift 59 seeds 177 degrees: the alias seed, 357, wins and ends near 360
    for shift, branch in ((0, 0), (59, 1)):
        pose = estimate_pose_stage1(c, c, shift, 120)
        assert np.hypot(pose.tx, pose.ty) < 1e-6
        assert abs(pose.yaw) < 1e-6
        assert pose.branch == branch


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


def _stage1_inputs(moved, scene):
    """The compact query and candidate, the descriptor shift and the config
    that stage 1 gets for a revisit of ``scene`` from ``moved``."""
    cfg = Config()
    k = best_shift_l1(describe(moved, cfg), describe(scene, cfg)).best_shift
    q, c = compact_2d(preprocess(moved, cfg), cfg), compact_2d(preprocess(scene, cfg), cfg)
    return q, c, k, cfg


def _alias_case():
    """A revisit whose 180-degree alias fits fewer points more closely: by
    gated mse the alias (ty -7.86, yaw -89.6 degrees) would win."""
    scene = synth.generate(synth.SceneSpec(151, pillars=22, walls=9, rings=1, range_limit=30.0))
    return _stage1_inputs(synth.perturb(scene, tx=0.49, ty=1.96, yaw_deg=77.5), scene)


def _planar_case(t):
    """A case drawn as the acceptance gate's planar set draws them (offsets
    to 3 m, any yaw), from its own seed."""
    rng = np.random.default_rng([2, t])
    spec = synth.SceneSpec(
        seed=5000 + t,
        pillars=int(rng.integers(10, 40)),
        walls=int(rng.integers(6, 19)),
        rings=int(rng.integers(1, 5)),
        range_limit=30.0,
    )
    scene = synth.generate(spec)
    tx, ty = (float(v) for v in rng.uniform(-3.0, 3.0, 2))
    moved = synth.perturb(scene, tx=tx, ty=ty, yaw_deg=float(rng.uniform(0.0, 360.0)))
    return _stage1_inputs(moved, scene)


def _stage1_by_full_runs(q, c, k, cfg) -> Se2Pose:
    """The two-branch rule without the lockstep: both ``nicp_2d`` runs go to
    their end, the lower score is kept and a tie keeps branch 0."""
    base = np.radians(shift_to_rotation(k, cfg.angular_bins))
    runs = [nicp_2d(q, c, base + b * np.pi) for b in (0, 1)]
    b = int(runs[1].score < runs[0].score)
    return replace(runs[b], branch=b)


def test_stage1_picks_the_branch_by_truncated_score_not_gated_mse():
    q, c, k, cfg = _alias_case()
    base = np.radians(shift_to_rotation(k, cfg.angular_bins))
    true, alias = (nicp_2d(q, c, base + b * np.pi) for b in (0, 1))
    assert alias.mse < true.mse and true.score < alias.score
    est = planar_pose(q, c, k, cfg)
    assert est.branch == 0
    assert astuple(est)[:6] == astuple(true)[:6]
    assert properties.pose_recovered(est, 0.49, 1.96, 77.5)


@pytest.mark.parametrize("case", [*range(20), "alias"])
def test_stage1_equals_the_lower_score_of_two_full_nicp_runs(case):
    q, c, k, cfg = _alias_case() if case == "alias" else _planar_case(case)
    est = planar_pose(q, c, k, cfg)
    # every field, the objective trace included
    assert astuple(est) == astuple(_stage1_by_full_runs(q, c, k, cfg))


@pytest.fixture
def nn_searches(monkeypatch):
    """One entry per ``pose._query_within`` call (a gated nearest-neighbor search)."""
    searches = []
    plain = pose_mod._query_within

    def counting(tree, points, gate_m):
        searches.append(gate_m)
        return plain(tree, points, gate_m)

    monkeypatch.setattr(pose_mod, "_query_within", counting)
    return searches


def test_stage1_stops_the_losing_branch_once_the_kept_one_converges(nn_searches):
    q, c, k, cfg = _alias_case()
    est = planar_pose(q, c, k, cfg)
    assert est.converged
    steps = len(est.trace)
    assert steps < cfg.nicp_max_iters
    # a search per branch and iteration at that iteration's gate, the loser's
    # included in the iteration the winner converged in, then one final
    # search per branch at the end gate
    gates = [
        pose_mod._gate_at(it, cfg.nicp_max_iters, cfg.nicp_gate_start_m, cfg.nicp_gate_end_m)
        for it in range(steps)
    ]
    assert nn_searches == [g for g in gates for _ in (0, 1)] + [cfg.nicp_gate_end_m] * 2


@pytest.mark.parametrize("alias_branch", [0, 1])
def test_a_branch_that_ends_unconverged_leaves_the_other_running(alias_branch, nn_searches):
    # the structure sits 40 m out along x, so the 180-degree seed turns every
    # query point 80 m away from the candidate: its first search matches none
    src = _moved_copy(_compact(_scene(57)), 40.0, 0.0, 0.0)
    dst = _moved_copy(src, 1.0, -0.5, np.radians(30.0))
    shift = 70 - 60 * alias_branch  # the first seed: 210 or 30 degrees at 120 bins
    est = estimate_pose_stage1(src, dst, shift, 120)
    searched = len(nn_searches)
    alias, full = (
        nicp_2d(src, dst, np.radians(shift_to_rotation(shift, 120)) + b * np.pi)
        for b in (alias_branch, 1 - alias_branch)
    )
    assert alias.trace == [] and not alias.converged
    assert est.branch == 1 - alias_branch
    assert est.converged and len(est.trace) > 1
    assert astuple(est) == astuple(replace(full, branch=est.branch))
    # the alias: its one search and its final score; the kept branch: its
    # steps and its final score
    assert searched == 2 + len(est.trace) + 1


def test_nicp_score_caps_each_source_point_at_the_final_gate():
    pts = _GRID[:, :2]
    normals = np.tile([1.0, 0.0], (len(pts), 1))
    src = Compact2dCloud(pts, normals)
    # half the points 0.25 m from a counterpart, the rest beyond any gate
    dst = Compact2dCloud(np.vstack([pts[:6] + [0.25, 0.0], pts[6:] + [0.0, 100.0]]), normals)
    est = nicp_2d(src, dst, 0.0, max_iters=0, gate_start_m=0.5, gate_end_m=0.5)
    assert est.mse == 0.0625
    assert est.score == (6 * 0.0625 + 6 * 0.25) / 12


def test_refine_identity():
    cloud = _scene(57)
    pose = refine_pose_3d(cloud, cloud, Se2Pose(0.0, 0.0, 0.0))
    assert np.hypot(pose.tx, pose.ty) < 1e-6
    assert abs(pose.tz) < 1e-6
    assert pose.mse < 1e-9
    # the exact seed scores 0 and the step ends at rounding noise above it
    assert pose.converged
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
    before = _alignment_mse_3d(cloud, moved, se2_to_matrix(seed), gate_m=2.0)
    est = refine_pose_3d(cloud, moved, seed)
    after = _alignment_mse_3d(cloud, moved, se3_to_matrix_4x4(est), gate_m=2.0)
    assert after <= before


def transform_3d(xyz, tx, ty, yaw):
    out = xyz.copy()
    out[:, :2] = transform_xy(xyz[:, :2], tx, ty, yaw)
    return out


def se3_to_matrix_4x4(pose):
    m = se2_to_matrix(Se2Pose(pose.tx, pose.ty, pose.yaw))
    m[2, 3] = pose.tz
    return m


def test_refine_seed_mse_obeys_the_gate():
    cloud = _scene(60)
    gate = {"max_iters": 0, "gate_start_m": 0.5, "gate_end_m": 0.5}
    # misaligned by more than the gate: nothing matches, mse is inf
    assert refine_pose_3d(cloud, cloud, Se2Pose(50.0, 50.0, 0.0), **gate).mse == np.inf
    assert refine_pose_3d(cloud, cloud, Se2Pose(0.0, 0.0, 0.0), **gate).mse == pytest.approx(
        0.0, abs=1e-12
    )


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
def test_voxel_centroids_unfolded_fallback_on_huge_spans(dim):
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
        astuple(refine_pose_3d(query, cand, init, max_iters=0)),
        extract_compact_2d(query),
    )
    monkeypatch.setattr(pose_mod, "_voxel_centroids", _voxel_centroids_by_row_unique)
    oracle = (
        astuple(refine_pose_3d(query, cand, init)),
        astuple(refine_pose_3d(query, cand, init, max_iters=0)),
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
    assert est.mse == _alignment_mse_3d(query, cand, se2_to_matrix(init), 0.4)
    assert (est.tx, est.ty) == (init.tx, init.ty)


def _refine_pose_3d_by_full_search(
    query, candidate, init, voxel_m=Config.voxel_m, max_iters=STAGE2_MAX_ITERS,
    gate_start_m=STAGE2_GATE_START_M, gate_end_m=STAGE2_GATE_END_M, budget=STAGE2_QUERY_POINTS,
):
    """The former ``refine_pose_3d``, kept as the oracle: every iteration and
    the final score search the tree for every sampled query centroid."""
    a = _stage2_sample(pose_mod._voxel_centroids(query.xyz, voxel_m), budget)
    b = pose_mod._voxel_centroids(candidate.xyz, voxel_m)
    t = se2_to_matrix(init)
    if a.shape[0] < pose_mod._MIN_POINTS or b.shape[0] < pose_mod._MIN_POINTS:
        return matrix_to_se3(t, mse=np.inf, converged=False, success=False)
    tree = cKDTree(b)
    seed = pose_mod._query_within(
        tree, a @ t[:3, :3].T + t[:3, 3], max(gate_start_m, gate_end_m)
    )
    init_mse = pose_mod._gated_mse(seed[0], gate_end_m)
    converged = False
    for it in range(max_iters):
        frac = it / max(max_iters - 1, 1)
        gate = gate_start_m + (gate_end_m - gate_start_m) * frac
        p = a @ t[:3, :3].T + t[:3, 3]
        dist, j = seed if it == 0 else pose_mod._query_within(tree, p, gate)
        m = np.flatnonzero(dist <= gate)
        if m.size < 3:
            break
        pm = p.take(m, axis=0)
        qm = b.take(j.take(m), axis=0)
        cp = pm.mean(axis=0)
        cq = qm.mean(axis=0)
        h = (pm - cp).T @ (qm - cq)
        u, _, vt = np.linalg.svd(h)
        d = np.sign(np.linalg.det(vt.T @ u.T))
        r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
        tvec = cq - r @ cp
        delta = np.eye(4)
        delta[:3, :3] = r
        delta[:3, 3] = tvec
        t = delta @ t
        angle = np.arccos(np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0))
        if np.linalg.norm(tvec) < pose_mod._TOL_T_M and angle < pose_mod._TOL_YAW_RAD:
            converged = True
            break
    if converged:
        dist, _ = pose_mod._query_within(tree, a @ t[:3, :3].T + t[:3, 3], gate_end_m)
        mse = pose_mod._gated_mse(dist, gate_end_m)
        converged = mse <= init_mse + 1e-12
    if not converged:
        t, mse = se2_to_matrix(init), init_mse
    return matrix_to_se3(t, mse=mse, converged=converged, success=bool(mse < STAGE2_SUCCESS_MSE))


def _lattice_revisit(seed):
    """A scene snapped to a 0.5 m lattice and a copy of it a quarter step off
    in x and y: at a 0.5 m voxel every centroid is a lattice point, so at the
    identity seed each query centroid ties between its lattice neighbors."""
    xyz = np.round(_scene(seed).xyz * 2.0) / 2.0
    return PointCloud(xyz + [0.25, 0.25, 0.0]), PointCloud(xyz)


_REFINE_CASES = {
    "converged": lambda s: (*_revisit_pair(s), _SEEDS["converged"], 0.4),
    "perturbed": lambda s: (*_revisit_pair(s), Se2Pose(1.1, -0.2, np.radians(26.0)), 0.4),
    "alias": lambda s: (*_revisit_pair(s), Se2Pose(0.8, -0.5, np.radians(210.0)), 0.4),
    "pass-through": lambda s: (*_revisit_pair(s), _SEEDS["pass-through"], 0.4),
    "self-match": lambda s: (_scene(s), _scene(s), Se2Pose(0.0, 0.0, 0.0), 0.4),
    "lattice": lambda s: (*_lattice_revisit(s), Se2Pose(0.0, 0.0, 0.0), 0.5),
}


@pytest.mark.parametrize("max_iters", [20, 0])
@pytest.mark.parametrize("seed", [72, 73])
@pytest.mark.parametrize("case", sorted(_REFINE_CASES))
def test_refine_equals_the_full_search_loop(case, seed, max_iters):
    query, cand, init, voxel = _REFINE_CASES[case](seed)
    got = refine_pose_3d(query, cand, init, voxel, max_iters=max_iters)
    want = _refine_pose_3d_by_full_search(query, cand, init, voxel, max_iters=max_iters)
    assert astuple(got) == astuple(want)


_WALK_GATES = st.sampled_from([0.125, 0.25, 0.5, 1.0, 2.0])
# per-step motion scale (m); 2 m is beyond every cached margin
_WALK_SCALES = st.sampled_from([0.001, 0.01, 0.1, 0.5, 2.0])


@st.composite
def _search_walks(draw):
    """A candidate cloud, query points near it plus a few far from it, and a
    walk of rigid moves, each with its own gate, so gates shrink and grow.
    On the dyadic lattice the moves are lattice translations and every
    distance is exact, so nearest neighbors tie exactly."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lattice = draw(st.booleans())
    n = draw(st.integers(1, 300))
    if lattice:
        cand = rng.integers(-6, 7, (n, 3)) * 0.5
        points = rng.integers(-14, 15, (n, 3)) * 0.25
    else:
        cand = rng.uniform(-4.0, 4.0, (n, 3))
        points = cand[rng.integers(0, n, n)] + rng.normal(0.0, 0.3, (n, 3))
    points = np.vstack([points, points[: draw(st.integers(0, 5))] + 30.0])
    walk = []
    for scale, gate in draw(st.lists(st.tuples(_WALK_SCALES, _WALK_GATES), min_size=2, max_size=6)):
        if lattice:
            shift, yaw = np.round(rng.uniform(-scale, scale, 3) * 8.0) / 8.0, 0.0
        else:
            shift, yaw = rng.uniform(-scale, scale, 3), rng.uniform(-scale, scale) / 4.0
        walk.append((shift, yaw, gate))
    return cand, points, walk


@settings(max_examples=200, deadline=None)
@given(_search_walks())
def test_cached_search_equals_the_plain_search(case):
    cand, points, walk = case
    tree = cKDTree(cand)
    cache = None
    for shift, yaw, gate in walk:
        points = transform_3d(points, shift[0], shift[1], yaw) + [0.0, 0.0, shift[2]]
        dist, idx, cache = pose_mod._requery_within(tree, points, gate, cache)
        want_dist, want_idx = pose_mod._query_within(tree, points, gate)
        np.testing.assert_array_equal(dist, want_dist)
        np.testing.assert_array_equal(idx, want_idx)
        assert (dist[np.isfinite(dist)] <= gate).all()


def _preprocessed_revisit(seed):
    """A revisit pair through ``preprocess`` and the shift the descriptor would
    report for its 30 degree turn (3 degrees per column at 120 bins)."""
    cfg = Config()
    query, cand = _revisit_pair(seed)
    return preprocess(query, cfg), preprocess(cand, cfg), 10, cfg


@pytest.mark.parametrize("seed", [72, 73])
def test_relative_pose_with_stage2_is_the_refined_planar_pose(seed):
    q, c, k, cfg = _preprocessed_revisit(seed)
    planar = planar_pose(compact_2d(q, cfg), compact_2d(c, cfg), k, cfg)
    want = refine_pose_3d(q, c, planar, cfg.voxel_m)
    assert astuple(relative_pose(q, c, k, cfg)) == astuple(want)


@pytest.mark.parametrize("seed", [72, 73])
def test_relative_pose_without_stage2_scores_the_planar_pose(seed):
    q, c, k, cfg = _preprocessed_revisit(seed)
    cfg = replace(cfg, stage2=False)
    # the former inline build: the planar pose with its 3D score and stage 1's flag
    planar = planar_pose(compact_2d(q, cfg), compact_2d(c, cfg), k, cfg)
    mse = _alignment_mse_3d(q, c, se2_to_matrix(planar), cfg.voxel_m)
    want = matrix_to_se3(
        se2_to_matrix(planar),
        mse=mse,
        converged=planar.converged,
        success=bool(mse < STAGE2_SUCCESS_MSE),
    )
    got = relative_pose(q, c, k, cfg)
    assert astuple(got) == astuple(want)
    assert (got.tz, got.roll, got.pitch) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("stage2", [True, False])
def test_relative_pose_times_each_stage_that_runs(stage2):
    q, c, k, cfg = _preprocessed_revisit(72)
    entered = []

    def phase(name):
        entered.append(name)
        return nullcontext()

    relative_pose(q, c, k, replace(cfg, stage2=stage2), phase)
    assert entered == (["stage1", "stage2"] if stage2 else ["stage1", "score"])


def test_relative_pose_propagates_insufficient_structure():
    q, _, k, cfg = _preprocessed_revisit(72)
    sparse = PointCloud(xyz=np.random.default_rng(0).uniform(0.0, 1.0, (5, 3)))
    with pytest.raises(InsufficientStructureError):
        relative_pose(q, sparse, k, cfg)


@pytest.fixture
def tree_searches(monkeypatch):
    """(rows, k) of every search of a tree that ``fresco.pose`` builds."""
    searches = []

    class CountingTree(cKDTree):
        def query(self, x, k=1, **kw):
            searches.append((len(x), k))
            return super().query(x, k=k, **kw)

    monkeypatch.setattr(pose_mod, "cKDTree", CountingTree)
    return searches


def test_refine_searches_every_query_centroid_once_then_only_the_unsettled(tree_searches):
    q, c, k, cfg = _preprocessed_revisit(72)
    planar = planar_pose(compact_2d(q, cfg), compact_2d(c, cfg), k, cfg)
    n = len(_stage2_sample(pose_mod._voxel_centroids(q.xyz, cfg.voxel_m)))
    tree_searches.clear()
    assert refine_pose_3d(q, c, planar, cfg.voxel_m).converged
    assert tree_searches[0] == (n, 2)
    assert len(tree_searches) > 1
    assert sum(rows for rows, _ in tree_searches[1:]) < n
    tree_searches.clear()
    refine_pose_3d(q, c, planar, cfg.voxel_m, max_iters=0)
    assert tree_searches == [(n, 2)]  # the seed search stage 2 starts from


@pytest.mark.parametrize("budget", [64, STAGE2_QUERY_POINTS])
def test_refine_above_the_budget_searches_at_most_the_budget(tree_searches, budget):
    q, c, k, cfg = _preprocessed_revisit(72)
    planar = planar_pose(compact_2d(q, cfg), compact_2d(c, cfg), k, cfg)
    assert len(pose_mod._voxel_centroids(q.xyz, cfg.voxel_m)) > budget
    tree_searches.clear()
    refine_pose_3d(q, c, planar, cfg.voxel_m, query_points=budget)
    assert tree_searches[0] == (budget, 2)
    assert all(rows <= budget for rows, _ in tree_searches)


@pytest.mark.parametrize("max_iters", [20, 0])
@pytest.mark.parametrize("case", ["converged", "alias", "lattice"])
def test_refine_with_every_centroid_in_budget_is_the_unsampled_full_search(case, max_iters):
    query, cand, init, voxel = _REFINE_CASES[case](72)
    n = len(pose_mod._voxel_centroids(query.xyz, voxel))
    assert n > STAGE2_QUERY_POINTS  # so the default budget would sample
    want = _refine_pose_3d_by_full_search(
        query, cand, init, voxel, max_iters=max_iters, budget=np.inf
    )
    for budget in (n, n + 1):
        got = refine_pose_3d(query, cand, init, voxel, max_iters=max_iters, query_points=budget)
        assert astuple(got) == astuple(want)


@pytest.mark.parametrize("budget", [1, 2, 3, 10, STAGE2_QUERY_POINTS])
def test_stage2_pick_is_the_cell_cap_pick_of_one_cell(budget):
    for n in (*range(budget + 1, budget + 40), 15_339, 2**20 + 1):
        pick = pose_mod._spaced_picks(n, budget)
        assert pick.shape == (budget,)
        assert pick[0] == 0 and pick[-1] == (n - 1 if budget > 1 else 0)
        assert (np.diff(pick) > 0).all()
        np.testing.assert_array_equal(pick, np.linspace(0, n - 1, budget).round())
        np.testing.assert_array_equal(pick, pose_mod._cap_per_cell(np.zeros(n, np.int64), budget))
    # a budget equal to the count keeps every position
    np.testing.assert_array_equal(pose_mod._spaced_picks(budget, budget), np.arange(budget))


def test_cached_search_leaves_a_neighbor_at_the_bound_to_the_tree(tree_searches):
    tree = pose_mod.cKDTree(np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0]]))
    points = np.array([[0.5, 0.0, 0.0]])
    _, _, cache = pose_mod._requery_within(tree, points, 2.0)
    # the re-search finds no second neighbor within the gate, so the gate bounds
    # the rest and the pair counts as a tie, which the plain search decides
    for gate, searched in ((1.0, []), (0.5, [(1, 2), (1, 1)])):
        tree_searches.clear()
        dist, idx, cache = pose_mod._requery_within(tree, points, gate, cache)
        assert tree_searches == searched
        assert (dist[0], idx[0]) == (0.5, 0)


# dyadic coordinates, one point per voxel: every distance below is exact
_GRID = np.array([[4.0 * i, 4.0 * j, 0.25 * (i + j)] for i in range(4) for j in range(3)])
_AT_GATE = np.array([0.5, 0.0, 0.0])  # exactly the 0.5 m gate away


def test_alignment_mse_counts_a_neighbor_exactly_at_the_gate():
    # the 3D alignment score of a fixed pose is the zero-iteration refine's mse
    query, cand = PointCloud(_GRID), PointCloud(_GRID + _AT_GATE)
    init = Se2Pose(0.0, 0.0, 0.0)
    for gate, want in ((0.5, 0.25), (0.4999, np.inf)):
        est = refine_pose_3d(query, cand, init, max_iters=0, gate_start_m=gate, gate_end_m=gate)
        assert est.mse == want


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


@pytest.mark.parametrize("sparse", ["query", "candidate"])
def test_refine_passes_the_seed_through_when_a_cloud_has_too_few_centroids(sparse):
    few, full = PointCloud(_GRID[: pose_mod._MIN_POINTS - 1]), PointCloud(_GRID)
    query, cand = (few, full) if sparse == "query" else (full, few)
    init = Se2Pose(0.25, 0.0, 0.0)
    est = refine_pose_3d(query, cand, init)
    assert (est.tx, est.ty, est.tz, est.roll, est.pitch, est.yaw) == (0.25, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert est.mse == np.inf and not est.converged and not est.success


@pytest.mark.parametrize("pairs", [0, 1, 2])
def test_refine_stops_when_fewer_than_three_centroids_lie_inside_the_gate(pairs):
    # ``pairs`` candidate centroids sit 0.5 m from their query counterparts, the rest 100 m up
    query = PointCloud(_GRID)
    cand = PointCloud(np.vstack([_GRID[:pairs] + _AT_GATE, _GRID[pairs:] + [0.0, 0.0, 100.0]]))
    est = refine_pose_3d(query, cand, Se2Pose(0.0, 0.0, 0.0))
    # the seed passes through, scored over its pairs at the 0.5 m gate
    assert (est.tx, est.ty, est.tz, est.roll, est.pitch, est.yaw) == (0.0,) * 6
    assert est.mse == (0.25 if pairs else np.inf)
    assert not est.converged and est.success == (pairs > 0)


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
