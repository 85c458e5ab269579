"""Two-stage relative pose: planar normal-ICP seeded by the descriptor
rotation estimate, then optional point-to-point 3D refinement.

The descriptor shift fixes yaw only modulo 180 degrees, so stage 1 runs the
planar alignment from both seeds and keeps the branch with the lower
truncated score: the mean over all query points of the squared distance to
the nearest candidate point, each capped at the final gate.  Unlike the
gated mse, it charges a branch for every point it leaves unexplained, so an
alias that fits few points closely does not win.  The two branches step in
lockstep over one k-d tree of the candidate (``_nicp_lockstep``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .cloud import PointCloud, grid_cells
from .config import COARSE_GRID_M, Config


# Compaction keeps at most this many upper points per coarse cell
# (``config.COARSE_GRID_M``), fits each kept point's normal to this many
# neighbors, and drops a point whose neighborhood's eigenvalue ratio exceeds
# the flatness bound.
COMPACT_CELL_CAP = 10
COMPACT_NORMAL_NEIGHBORS = 10
COMPACT_MAX_FLATNESS = 0.8
# Stage 1's iteration budget per branch, and its correspondence gate (m),
# annealed from the start value to the end value over those iterations.
STAGE1_MAX_ITERS = 30
STAGE1_GATE_START_M, STAGE1_GATE_END_M = 8.0, 0.5
# Stage 2 calls a pose a success when its gated mse (m^2) is below this.  That mse is inf or
# at most 0.25, so success only means a sampled centroid lies within STAGE2_GATE_END_M.
STAGE2_SUCCESS_MSE = 1.5
# Stage 2 registers at most this many query centroids, evenly spaced in voxel
# key order (``_spaced_picks``); the candidate tree keeps every centroid.
STAGE2_QUERY_POINTS = 3072
# Stage 2's iteration budget, and its correspondence gate (m), annealed from
# the start value to the end value over those iterations (``_gate_at``).
STAGE2_MAX_ITERS = 20
STAGE2_GATE_START_M, STAGE2_GATE_END_M = 2.0, 0.5
# A stage-1 step is tried at most this many times, halved after each try that
# raises its objective by more than the rounding allowance.
_STEP_HALVINGS, _RISE_TOL = 8, 1e-15
_TOL_T_M, _TOL_YAW_RAD = 1e-3, 1e-4  # an ICP step smaller than both has converged
_MIN_POINTS = 10  # fewest structure points a cloud is registered with


class InsufficientStructureError(Exception):
    """Too few structure points survive extraction to register reliably."""


def shift_to_rotation(best_shift: int, angular_bins: int) -> float:
    """Descriptor column shift to scene rotation in degrees."""
    return best_shift / angular_bins * 360.0


def wrap_angle(a: float) -> float:
    """Wrap an angle in radians to (-pi, pi]."""
    return np.pi - (np.pi - a) % (2.0 * np.pi)


def rot2(yaw: float) -> np.ndarray:
    c, s = np.cos(yaw), np.sin(yaw)
    return np.array([[c, -s], [s, c]])


def transform_xy(points: np.ndarray, tx: float, ty: float, yaw: float) -> np.ndarray:
    return points @ rot2(yaw).T + np.array([tx, ty])


@dataclass
class Se2Pose:
    tx: float
    ty: float
    yaw: float  # radians, wrapped to (-pi, pi]
    mse: float = np.inf
    score: float = np.inf  # mean of min(d, final gate)^2 over all source points
    converged: bool = False
    branch: int | None = None
    # (objective before step, after step) per applied iteration, for audits
    trace: list = field(default_factory=list, repr=False, compare=False)


@dataclass
class Se3Pose:
    tx: float
    ty: float
    tz: float
    roll: float
    pitch: float
    yaw: float
    mse: float = np.inf
    converged: bool = False
    success: bool = False


@dataclass
class Compact2dCloud:
    """Sparse planar outline: 2D points with unit normals, one per point."""

    points: np.ndarray  # (N, 2)
    normals: np.ndarray  # (N, 2), unit length


def se2_to_matrix(pose: Se2Pose) -> np.ndarray:
    m = np.eye(4)
    m[:2, :2] = rot2(pose.yaw)
    m[0, 3] = pose.tx
    m[1, 3] = pose.ty
    return m


def matrix_to_se3(m: np.ndarray, **kw) -> Se3Pose:
    """Decompose a 4x4 rigid transform with z-y-x (yaw-pitch-roll) angles."""
    yaw = float(np.arctan2(m[1, 0], m[0, 0]))
    pitch = float(np.arcsin(np.clip(-m[2, 0], -1.0, 1.0)))
    roll = float(np.arctan2(m[2, 1], m[2, 2]))
    return Se3Pose(float(m[0, 3]), float(m[1, 3]), float(m[2, 3]), roll, pitch, yaw, **kw)


def _voxel_centroids(pts: np.ndarray, voxel: float) -> np.ndarray:
    """One centroid per occupied voxel, rows ordered by voxel key.

    The integer voxel keys are folded into one int64 per point (offset by
    the per-axis minimum, mixed radix over the per-axis spans), whose sort
    order is the lexicographic order of the key rows, so one stable 1-D
    argsort groups the voxels without a row-wise sort: run starts label the
    sorted keys, as ``np.unique``'s inverse would.  When the spans' product
    does not fit in an int64 a column-wise unique groups them, in the same
    order.  The keys and sums work on the columns as contiguous rows, one per
    axis, so every per-axis reduction reads contiguous memory.
    """
    dim = pts.shape[1]
    if pts.shape[0] == 0:
        return np.empty((0, dim))
    cols = np.ascontiguousarray(pts.T)
    keys = np.floor(cols / voxel).astype(np.int64)
    keys -= keys.min(axis=1, keepdims=True)
    spans = [int(s) + 1 for s in keys.max(axis=1)]
    if math.prod(spans) <= np.iinfo(np.int64).max:
        flat = keys[0]  # folded in place; the key rows are not read again
        for d in range(1, dim):
            flat *= spans[d]
            flat += keys[d]
        order = np.argsort(flat, kind="stable")
        flat = flat[order]
        starts = np.empty(flat.shape, dtype=bool)
        starts[0] = True
        np.not_equal(flat[1:], flat[:-1], out=starts[1:])
        inverse = np.empty_like(order)
        inverse[order] = np.cumsum(starts) - 1
        counts = np.diff(np.append(np.flatnonzero(starts), flat.shape[0]))
    else:
        _, inverse, counts = np.unique(keys, axis=1, return_inverse=True, return_counts=True)
    sums = np.zeros((counts.shape[0], dim))
    for d in range(dim):
        sums[:, d] = np.bincount(inverse, weights=cols[d])
    return sums / counts[:, None]


def _gated_mse(dist: np.ndarray, gate_m: float) -> float:
    """Mean squared nearest-neighbor distance within the gate; inf when none is."""
    m = dist <= gate_m
    return float((dist[m] ** 2).mean()) if m.any() else np.inf


def _query_within(tree: cKDTree, points: np.ndarray, gate_m: float):
    """Nearest neighbors no farther than ``gate_m``; the rest come back as
    distance inf and index ``tree.n``.  No part of the tree beyond the gate
    is searched, and a neighbor exactly at the gate is still found."""
    return tree.query(points, distance_upper_bound=np.nextafter(gate_m, np.inf))


# Rounding allowance (m) for the cached search's proofs, not a setting: it
# covers the last-bit error of the distances they add up.  A larger value
# only sends more points back to the tree.
_CACHE_SLACK_M = 1e-6


def _requery_within(tree: cKDTree, points: np.ndarray, gate_m: float, cache=None):
    """``_query_within(tree, points, gate_m)`` bit for bit, searching the tree
    only for points whose nearest neighbor may have changed since ``cache``.

    Returns ``dist, idx, cache``; pass ``cache`` back with the same points
    moved.  The first call (``cache`` None) searches every point for two
    neighbors.  Per point the cache holds where it was last searched (its
    anchor), the nearest neighbor there with its distance ``d1``, and ``d2``,
    a bound below the anchor's distance to every other candidate (the second
    neighbor's distance, or the search bound).  By the triangle inequality a
    point ``delta`` from its anchor keeps its neighbor as the unique nearest
    one while ``d1 + 2 delta < d2``, and has no neighbor within the bound
    ``ub`` while ``ub + delta < min(d1, d2)``, whichever way the gate moved;
    both tests carry ``_CACHE_SLACK_M``.  Every other point is searched again
    and re-anchored.  A kept distance is recomputed in cKDTree's arithmetic
    (a sum of squares in axis order, tested against ``ub * ub``, then sqrt);
    one within the slack of the bound is left to the tree, which prunes by
    its own rounding.  Where the two nearest tie within the slack, the plain
    search picks, so the tree breaks the tie as ``_query_within`` does.
    """
    ub = np.nextafter(gate_m, np.inf)
    n = len(points)
    if cache is None:  # a cache that proves nothing: every point is searched
        cache = (points.copy(), np.full(n, np.inf), np.full(n, tree.n), np.zeros(n))
    anchor, d1, i1, d2 = cache
    moved = points - anchor
    delta = np.sqrt(np.einsum("ij,ij->i", moved, moved))
    # no candidate within ub: every one was at least min(d1, d2) from the anchor
    settled = ub + delta + _CACHE_SLACK_M < np.minimum(d1, d2)
    # the cached neighbor is still the unique nearest one
    same = np.flatnonzero((d1 + 2.0 * delta + _CACHE_SLACK_M < d2) & ~settled)
    nbr = i1[same]
    diff = points[same] - tree.data[nbr]
    s = diff[:, 0] * diff[:, 0]
    for c in range(1, diff.shape[1]):
        s += diff[:, c] * diff[:, c]
    near = np.sqrt(s)
    clear = np.abs(near - ub) > _CACHE_SLACK_M
    hit = clear & (s < ub * ub)
    dist = np.full(n, np.inf)
    idx = np.full(n, tree.n)
    dist[same[hit]] = near[hit]
    idx[same[hit]] = nbr[hit]
    settled[same[clear]] = True
    redo = np.flatnonzero(~settled)
    if redo.size:
        x = points[redo]
        d, i = tree.query(x, k=2, distance_upper_bound=ub)
        second = np.minimum(d[:, 1], ub)  # finite, so no inf - inf below
        anchor[redo] = x
        d1[redo] = dist[redo] = d[:, 0]
        i1[redo] = idx[redo] = i[:, 0]
        d2[redo] = second
        tie = redo[np.isfinite(d[:, 0]) & (second - d[:, 0] <= _CACHE_SLACK_M)]
        if tie.size:
            dist[tie], idx[tie] = _query_within(tree, points[tie], gate_m)
    return dist, idx, cache


def _gate_at(it: int, max_iters: int, start_m: float, end_m: float) -> float:
    """The correspondence gate of iteration ``it`` of ``max_iters``: linear
    from ``start_m`` at the first iteration to ``end_m`` at the last."""
    frac = it / max(max_iters - 1, 1)
    return start_m + (end_m - start_m) * frac


def _spaced_picks(size, count: int) -> np.ndarray:
    """``np.linspace(0, size - 1, count).round()`` as int64 positions: one
    row for an integer ``size``, one row per entry of an array of sizes.

    For ``size > count`` these are ``count`` distinct, increasing positions.
    The picks repeat linspace's arithmetic, ``i * ((size - 1) / (count - 1))``;
    its exact endpoint needs no special case, because rounding absorbs the
    product's error.
    """
    step = (np.asarray(size)[..., None] - 1) / max(count - 1, 1)
    return (np.arange(count) * step).round().astype(np.int64)


def _cap_per_cell(cells: np.ndarray, cap: int) -> np.ndarray:
    """Positions into ``cells`` grouped by cell id, at most ``cap`` per cell.

    Each group keeps its members' order.  A cell with more than ``cap``
    members keeps its ``_spaced_picks(size, cap)``.
    """
    order = np.argsort(cells, kind="stable")
    ordered = cells[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    sizes = np.diff(np.append(starts, order.size))
    keep = np.repeat(sizes <= cap, sizes)
    big = sizes > cap
    if big.any():
        keep[(starts[big, None] + _spaced_picks(sizes[big], cap)).ravel()] = True
    return order[keep]


def extract_compact_2d(
    cloud: PointCloud,
    coarse_grid_m: float = COARSE_GRID_M,
    cell_cap: int = COMPACT_CELL_CAP,
    voxel_m: float = Config.voxel_m,
    normal_neighbors: int = COMPACT_NORMAL_NEIGHBORS,
    max_flatness_ratio: float = COMPACT_MAX_FLATNESS,
) -> Compact2dCloud:
    """Condense a (ground-removed) cloud into a 2D outline with normals.

    Per coarse cell only points in the upper half of the cell's height span
    are kept, capped at ``cell_cap`` per cell, then projected to x-y and
    voxel-downsampled to centroids.  Normals come from the minor eigenvector
    of a 2D PCA over each point's nearest neighbors; points whose eigenvalue
    ratio exceeds ``max_flatness_ratio`` (isotropic neighborhoods) are
    dropped because their normal direction is meaningless.
    """
    xyz = cloud.xyz
    if len(cloud) < _MIN_POINTS:
        raise InsufficientStructureError(f"{len(cloud)} points, need at least {_MIN_POINTS}")
    x, y, z = xyz.T
    cid, rows, cols = grid_cells(x, y, coarse_grid_m)
    ncell = rows * cols
    zmin = np.full(ncell, np.inf)
    zmax = np.full(ncell, -np.inf)
    np.minimum.at(zmin, cid, z)
    np.maximum.at(zmax, cid, z)
    upper = z >= (zmin[cid] + zmax[cid]) / 2.0

    idx = np.flatnonzero(upper)
    if not idx.size:
        raise InsufficientStructureError("no points survive the height filter")
    sel = idx[_cap_per_cell(cid[idx], cell_cap)]

    pts = _voxel_centroids(xyz[sel, :2], voxel_m)
    n = pts.shape[0]
    if n < _MIN_POINTS:
        raise InsufficientStructureError(
            f"{n} points after downsampling, need at least {_MIN_POINTS}"
        )

    k = min(normal_neighbors + 1, n)
    _, nbr = cKDTree(pts).query(pts, k=k)
    neigh = pts[nbr]  # (n, k, 2), includes the point itself
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    cxx = (centered[:, :, 0] ** 2).mean(axis=1)
    cyy = (centered[:, :, 1] ** 2).mean(axis=1)
    cxy = (centered[:, :, 0] * centered[:, :, 1]).mean(axis=1)
    tr = cxx + cyy
    det = np.sqrt(np.maximum((cxx - cyy) ** 2 + 4.0 * cxy**2, 0.0))
    lam_major = (tr + det) / 2.0
    lam_minor = (tr - det) / 2.0
    # minor eigenvector of [[cxx, cxy], [cxy, cyy]]
    v = np.stack([cxy, lam_minor - cxx], axis=1)
    alt = np.stack([lam_minor - cyy, cxy], axis=1)
    weak = np.linalg.norm(v, axis=1) < np.linalg.norm(alt, axis=1)
    v[weak] = alt[weak]
    norms = np.linalg.norm(v, axis=1)
    ok = (lam_major > 0) & (norms > 0) & (lam_minor <= max_flatness_ratio * lam_major)
    if ok.sum() < _MIN_POINTS:
        raise InsufficientStructureError(
            f"{int(ok.sum())} points with usable normals, need at least {_MIN_POINTS}"
        )
    return Compact2dCloud(pts[ok], v[ok] / norms[ok, None])


_J = np.array([[0.0, -1.0], [1.0, 0.0]])  # d/dyaw of rot2 at 0


def nicp_2d(
    src: Compact2dCloud,
    dst: Compact2dCloud,
    yaw_init: float,
    max_iters: int = STAGE1_MAX_ITERS,
    gate_start_m: float = STAGE1_GATE_START_M,
    gate_end_m: float = STAGE1_GATE_END_M,
) -> Se2Pose:
    """Planar point-to-plane alignment of src onto dst.

    Translation starts at zero and yaw at the seed.  The correspondence
    gate anneals linearly from ``gate_start_m`` to ``gate_end_m`` so early
    iterations can absorb multi-meter revisit offsets.  The budget and gates
    default to stage 1's fixed values, ``STAGE1_MAX_ITERS`` and
    ``STAGE1_GATE_START_M`` -> ``STAGE1_GATE_END_M``.  Each Gauss-Newton
    step is halved until the residual on that iteration's correspondences
    does not increase, trying at most ``_STEP_HALVINGS`` step sizes, so the
    recorded objective never rises within a step.
    Convergence means the pose update fell below ``_TOL_T_M`` / ``_TOL_YAW_RAD``.
    The iteration stops without converging when fewer than 3 points match,
    when no non-worsening step exists, or after ``max_iters`` steps.
    The reported mse is the mean squared distance over correspondences
    gated at ``gate_end_m`` at the final pose (inf when none survive); the
    score is the mean over all source points of the squared distance
    capped at ``gate_end_m``.  Nothing beyond the current gate is searched
    for a correspondence.

    This is ``_nicp_lockstep`` from one seed: one branch of
    ``estimate_pose_stage1`` run to its end.
    """
    (pose,) = _nicp_lockstep(src, dst, (yaw_init,), max_iters, gate_start_m, gate_end_m)
    return pose


def _nicp_step(src, dst, tree, pose: Se2Pose, gate: float) -> bool:
    """One ``nicp_2d`` step of ``pose`` at correspondence gate ``gate``.

    Moves ``pose`` (its yaw left unwrapped), appends the step's (before,
    after) objective to its trace and sets ``converged``.  Returns False,
    leaving the pose as it stands, when the branch stops here without
    converging.
    """
    p = transform_xy(src.points, pose.tx, pose.ty, pose.yaw)
    dist, j = _query_within(tree, p, gate)
    m = dist <= gate
    if m.sum() < 3:
        return False
    pm = p[m]
    qm = dst.points[j[m]]
    nm = dst.normals[j[m]]
    r = ((pm - qm) * nm).sum(axis=1)
    before = float((r**2).mean())
    a = np.column_stack([(pm @ _J.T * nm).sum(axis=1), nm[:, 0], nm[:, 1]])
    try:
        step, *_ = np.linalg.lstsq(a, -r, rcond=None)
    except np.linalg.LinAlgError:
        return False
    dyaw, dtx, dty = (float(v) for v in step)
    for _ in range(_STEP_HALVINGS):
        pn = pm @ rot2(dyaw).T + np.array([dtx, dty])
        after = float((((pn - qm) * nm).sum(axis=1) ** 2).mean())
        if after <= before + _RISE_TOL:
            break
        dyaw, dtx, dty = dyaw / 2.0, dtx / 2.0, dty / 2.0
    else:
        return False  # no non-worsening step exists
    pose.yaw += dyaw
    pose.tx, pose.ty = rot2(dyaw) @ np.array([pose.tx, pose.ty]) + np.array([dtx, dty])
    pose.trace.append((before, after))
    pose.converged = bool(np.hypot(dtx, dty) < _TOL_T_M and abs(dyaw) < _TOL_YAW_RAD)
    return True


def _nicp_lockstep(
    src: Compact2dCloud,
    dst: Compact2dCloud,
    seeds,
    max_iters: int = STAGE1_MAX_ITERS,
    gate_start_m: float = STAGE1_GATE_START_M,
    gate_end_m: float = STAGE1_GATE_END_M,
) -> list[Se2Pose]:
    """``nicp_2d`` from each yaw seed, the branches stepped in lockstep over
    one k-d tree of ``dst``; one ``Se2Pose`` per seed, in seed order.

    Iteration ``it`` gives every live branch one step at that iteration's
    gate.  A branch that stops without converging drops out and leaves the
    others running.  After the first iteration in which any branch
    converges, every branch stops where it stands.  Each branch is then
    scored at its pose by one final search at ``gate_end_m``.  With one seed
    this is ``nicp_2d`` run to its end.
    """
    if min(src.points.shape[0], dst.points.shape[0]) < _MIN_POINTS:
        raise InsufficientStructureError(f"both clouds need at least {_MIN_POINTS} points")
    tree = cKDTree(dst.points)
    poses = [Se2Pose(0.0, 0.0, float(s)) for s in seeds]
    live = poses
    for it in range(max_iters):
        gate = _gate_at(it, max_iters, gate_start_m, gate_end_m)
        live = [p for p in live if _nicp_step(src, dst, tree, p, gate)]
        if any(p.converged for p in live):
            break
    for p in poses:
        dist, _ = _query_within(tree, transform_xy(src.points, p.tx, p.ty, p.yaw), gate_end_m)
        p.tx, p.ty, p.yaw = float(p.tx), float(p.ty), wrap_angle(p.yaw)
        p.mse = _gated_mse(dist, gate_end_m)
        p.score = float((np.minimum(dist, gate_end_m) ** 2).mean())
    return poses


def estimate_pose_stage1(
    query: Compact2dCloud,
    candidate: Compact2dCloud,
    best_shift: int,
    angular_bins: int,
    **nicp_kw,
) -> Se2Pose:
    """Run planar alignment from both yaw seeds and keep the lower-score branch.

    Seeds are the descriptor rotation estimate and that estimate plus 180
    degrees.  The two ``nicp_2d`` branches run in lockstep
    (``_nicp_lockstep``) over one k-d tree of the candidate.  The lower
    truncated score wins and a tie keeps the first.  The returned pose maps
    query-frame points into the candidate frame and carries the chosen
    branch (0 or 1).
    """
    base = np.radians(shift_to_rotation(best_shift, angular_bins))
    first, second = _nicp_lockstep(query, candidate, (base, base + np.pi), **nicp_kw)
    if second.score < first.score:
        second.branch = 1
        return second
    first.branch = 0
    return first


def refine_pose_3d(
    query: PointCloud,
    candidate: PointCloud,
    init: Se2Pose,
    voxel_m: float = Config.voxel_m,
    max_iters: int = STAGE2_MAX_ITERS,
    gate_start_m: float = STAGE2_GATE_START_M,
    gate_end_m: float = STAGE2_GATE_END_M,
    query_points: int = STAGE2_QUERY_POINTS,
) -> Se3Pose:
    """Point-to-point 3D refinement of a planar pose.

    Both clouds are reduced to voxel centroids.  The k-d tree holds every
    candidate centroid; of the query centroids, at most ``query_points``
    are registered, picked by ``_spaced_picks`` in voxel key order (a query
    with no more centroids than that is registered whole).  The sample
    serves every step below: the seed search, the iterations, the final
    mse and ``success``.

    Seeds z, roll, and pitch at zero.  If the iteration fails to converge or
    would end with a higher mse than the seed pose (beyond 1e-12 m² of
    rounding), the seed is passed through unchanged with
    ``converged=False``; ``max_iters=0`` therefore scores the seed, from
    the same seed search.  The mse is the mean squared distance from the
    sampled query centroids to their nearest candidate centroids, over
    correspondences gated at ``gate_end_m`` (inf when none survive).
    ``success`` records whether the final mse beats ``STAGE2_SUCCESS_MSE``.
    Nothing beyond the current gate is searched for a correspondence.

    The seed search finds every sampled centroid's two nearest neighbors;
    later iterations and the final score re-use them and search again only
    the centroids whose nearest neighbor the triangle inequality cannot prove
    unchanged (``_requery_within``).  Late iterations move the pose by
    millimeters, so few are searched, and since every correspondence is the
    one a full search would find, the result is that of searching every
    sampled centroid on every iteration, bit for bit.
    """
    a = _voxel_centroids(query.xyz, voxel_m)
    if a.shape[0] > query_points:
        a = a[_spaced_picks(a.shape[0], query_points)]
    b = _voxel_centroids(candidate.xyz, voxel_m)
    t = se2_to_matrix(init)
    if min(a.shape[0], b.shape[0]) < _MIN_POINTS:
        return matrix_to_se3(t, mse=np.inf, converged=False, success=False)
    tree = cKDTree(b)
    # the seed pose's correspondences are iteration 0's as well
    p = a @ t[:3, :3].T + t[:3, 3]
    dist, j, cache = _requery_within(tree, p, max(gate_start_m, gate_end_m))
    init_mse = _gated_mse(dist, gate_end_m)
    converged = False
    for it in range(max_iters):
        gate = _gate_at(it, max_iters, gate_start_m, gate_end_m)
        if it:
            p = a @ t[:3, :3].T + t[:3, 3]
            dist, j, cache = _requery_within(tree, p, gate, cache)
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
        if np.linalg.norm(tvec) < _TOL_T_M and angle < _TOL_YAW_RAD:
            converged = True
            break
    if converged:
        dist, _, _ = _requery_within(tree, a @ t[:3, :3].T + t[:3, 3], gate_end_m, cache)
        mse = _gated_mse(dist, gate_end_m)
        # an exact seed (mse 0) refines to rounding noise, not to a worse pose
        converged = mse <= init_mse + 1e-12
    if not converged:
        t, mse = se2_to_matrix(init), init_mse
    return matrix_to_se3(t, mse=mse, converged=converged, success=bool(mse < STAGE2_SUCCESS_MSE))
