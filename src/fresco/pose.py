"""Two-stage relative pose: planar normal-ICP seeded by the descriptor
rotation estimate, then optional point-to-point 3D refinement.

The descriptor shift fixes yaw only modulo 180 degrees, so stage 1 runs the
planar alignment from both seeds and keeps the branch with lower residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .cloud import PointCloud


# Stage 2 calls a pose a success when its gated mse (m^2) is below this.
STAGE2_SUCCESS_MSE = 1.5


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
    order is the lexicographic order of the key rows, so a 1-D unique groups
    the voxels without a row-wise sort.  When the spans' product does not
    fit in an int64 the rows are lexsorted instead, in the same order.
    """
    dim = pts.shape[1]
    if pts.shape[0] == 0:
        return np.empty((0, dim))
    keys = np.floor(pts / voxel).astype(np.int64)
    keys -= keys.min(axis=0)
    spans = [int(s) + 1 for s in keys.max(axis=0)]
    if math.prod(spans) <= np.iinfo(np.int64).max:
        flat = keys[:, 0].copy()
        for d in range(1, dim):
            flat *= spans[d]
            flat += keys[:, d]
        _, inverse, counts = np.unique(flat, return_inverse=True, return_counts=True)
    else:
        order = np.lexsort(keys.T[::-1])
        ordered = keys[order]
        start = np.concatenate(([True], (ordered[1:] != ordered[:-1]).any(axis=1)))
        inverse = np.empty(len(keys), dtype=np.int64)
        inverse[order] = np.cumsum(start) - 1
        counts = np.diff(np.append(np.flatnonzero(start), len(keys)))
    sums = np.zeros((counts.shape[0], dim))
    for d in range(dim):
        sums[:, d] = np.bincount(inverse, weights=pts[:, d])
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


def _cap_per_cell(cells: np.ndarray, cap: int) -> np.ndarray:
    """Positions into ``cells`` grouped by cell id, at most ``cap`` per cell.

    Each group keeps its members' order.  A cell with more than ``cap``
    members keeps those at ``np.linspace(0, size - 1, cap).round()``, which
    for ``size > cap`` are ``cap`` distinct positions.  The picks repeat
    linspace's arithmetic, ``i * ((size - 1) / (cap - 1))``; its exact
    endpoint needs no special case, because rounding absorbs the product's
    error.
    """
    order = np.argsort(cells, kind="stable")
    ordered = cells[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    sizes = np.diff(np.append(starts, order.size))
    keep = np.repeat(sizes <= cap, sizes)
    big = sizes > cap
    if big.any():
        step = (sizes[big] - 1) / max(cap - 1, 1)
        pick = (np.arange(cap) * step[:, None]).round().astype(np.int64)
        keep[(starts[big, None] + pick).ravel()] = True
    return order[keep]


def extract_compact_2d(
    cloud: PointCloud,
    coarse_grid_m: float = 4.0,
    cell_cap: int = 10,
    voxel_m: float = 0.4,
    normal_neighbors: int = 10,
    max_flatness_ratio: float = 0.8,
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
    if len(cloud) < 10:
        raise InsufficientStructureError(f"{len(cloud)} points, need at least 10")
    x, y, z = xyz.T
    ci = np.floor((x - x.min()) / coarse_grid_m).astype(np.int64)
    cj = np.floor((y - y.min()) / coarse_grid_m).astype(np.int64)
    nc = int(cj.max()) + 1
    cid = ci * nc + cj
    ncell = (int(ci.max()) + 1) * nc
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
    if n < 10:
        raise InsufficientStructureError(f"{n} points after downsampling, need at least 10")

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
    if ok.sum() < 10:
        raise InsufficientStructureError(
            f"{int(ok.sum())} points with usable normals, need at least 10"
        )
    return Compact2dCloud(pts[ok], v[ok] / norms[ok, None])


_J = np.array([[0.0, -1.0], [1.0, 0.0]])  # d/dyaw of rot2 at 0


def nicp_2d(
    src: Compact2dCloud,
    dst: Compact2dCloud,
    yaw_init: float,
    max_iters: int = 30,
    gate_start_m: float = 8.0,
    gate_end_m: float = 0.5,
    tol_t: float = 1e-3,
    tol_yaw: float = 1e-4,
) -> Se2Pose:
    """Planar point-to-plane alignment of src onto dst.

    Translation starts at zero and yaw at the seed.  The correspondence
    gate anneals linearly from ``gate_start_m`` to ``gate_end_m`` so early
    iterations can absorb multi-meter revisit offsets.  Each Gauss-Newton
    step is halved until the residual on that iteration's correspondences
    does not increase, so the recorded objective never rises within a step.
    Convergence means the pose update fell below ``tol_t`` / ``tol_yaw``.
    The reported mse is the mean squared distance over correspondences
    gated at ``gate_end_m`` at the final pose (inf when none survive).
    Nothing beyond the current gate is searched for a correspondence.
    """
    if src.points.shape[0] < 10 or dst.points.shape[0] < 10:
        raise InsufficientStructureError("both clouds need at least 10 points")
    tree = cKDTree(dst.points)
    tx, ty, yaw = 0.0, 0.0, float(yaw_init)
    converged = False
    trace = []
    for it in range(max_iters):
        frac = it / max(max_iters - 1, 1)
        gate = gate_start_m + (gate_end_m - gate_start_m) * frac
        p = transform_xy(src.points, tx, ty, yaw)
        dist, j = _query_within(tree, p, gate)
        m = dist <= gate
        if m.sum() < 3:
            break
        pm = p[m]
        qm = dst.points[j[m]]
        nm = dst.normals[j[m]]
        r = ((pm - qm) * nm).sum(axis=1)
        before = float((r**2).mean())
        a = np.column_stack([(pm @ _J.T * nm).sum(axis=1), nm[:, 0], nm[:, 1]])
        try:
            step, *_ = np.linalg.lstsq(a, -r, rcond=None)
        except np.linalg.LinAlgError:
            break
        dyaw, dtx, dty = (float(v) for v in step)
        after = before
        for _ in range(8):
            pn = pm @ rot2(dyaw).T + np.array([dtx, dty])
            after = float((((pn - qm) * nm).sum(axis=1) ** 2).mean())
            if after <= before + 1e-15:
                break
            dyaw, dtx, dty = dyaw / 2.0, dtx / 2.0, dty / 2.0
        if after > before + 1e-15:
            break  # no non-worsening step exists; stop at this pose
        yaw = yaw + dyaw
        tx, ty = rot2(dyaw) @ np.array([tx, ty]) + np.array([dtx, dty])
        trace.append((before, after))
        if np.hypot(dtx, dty) < tol_t and abs(dyaw) < tol_yaw:
            converged = True
            break
    dist, _ = _query_within(tree, transform_xy(src.points, tx, ty, yaw), gate_end_m)
    mse = _gated_mse(dist, gate_end_m)
    return Se2Pose(float(tx), float(ty), wrap_angle(yaw), mse, converged, trace=trace)


def estimate_pose_stage1(
    query: Compact2dCloud,
    candidate: Compact2dCloud,
    best_shift: int,
    angular_bins: int,
    **nicp_kw,
) -> Se2Pose:
    """Run planar alignment from both yaw seeds and keep the lower-mse branch.

    Seeds are the descriptor rotation estimate and that estimate plus 180
    degrees; the returned pose maps query-frame points into the candidate
    frame and carries the chosen branch (0 or 1).
    """
    base = np.radians(shift_to_rotation(best_shift, angular_bins))
    first = nicp_2d(query, candidate, base, **nicp_kw)
    second = nicp_2d(query, candidate, base + np.pi, **nicp_kw)
    if second.mse < first.mse:
        second.branch = 1
        return second
    first.branch = 0
    return first


def alignment_mse_3d(
    query: PointCloud,
    candidate: PointCloud,
    matrix: np.ndarray,
    voxel_m: float = 0.4,
    gate_m: float = 0.5,
) -> float:
    """Mean squared 3D nearest-neighbor distance under a given alignment.

    Both clouds are voxel-downsampled first; correspondences farther than
    ``gate_m`` are ignored.  Returns inf when nothing falls inside the gate.
    """
    a = _voxel_centroids(query.xyz, voxel_m)
    b = _voxel_centroids(candidate.xyz, voxel_m)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.inf
    dist, _ = _query_within(cKDTree(b), a @ matrix[:3, :3].T + matrix[:3, 3], gate_m)
    return _gated_mse(dist, gate_m)


def refine_pose_3d(
    query: PointCloud,
    candidate: PointCloud,
    init: Se2Pose,
    voxel_m: float = 0.4,
    max_iters: int = 20,
    gate_start_m: float = 2.0,
    gate_end_m: float = 0.5,
    success_mse: float = STAGE2_SUCCESS_MSE,
) -> Se3Pose:
    """Point-to-point 3D refinement of a planar pose.

    Seeds z, roll, and pitch at zero.  If the iteration fails to converge or
    would end with a higher mse than the seed pose, the seed is passed
    through unchanged with ``converged=False``.  ``success`` records whether
    the final mse beats ``success_mse``.  Nothing beyond the current gate is
    searched for a correspondence.
    """
    a = _voxel_centroids(query.xyz, voxel_m)
    b = _voxel_centroids(candidate.xyz, voxel_m)
    t = se2_to_matrix(init)
    if a.shape[0] < 10 or b.shape[0] < 10:
        return matrix_to_se3(t, mse=np.inf, converged=False, success=False)
    tree = cKDTree(b)
    # the seed pose's correspondences are iteration 0's as well
    seed = _query_within(tree, a @ t[:3, :3].T + t[:3, 3], max(gate_start_m, gate_end_m))
    init_mse = _gated_mse(seed[0], gate_end_m)
    converged = False
    for it in range(max_iters):
        frac = it / max(max_iters - 1, 1)
        gate = gate_start_m + (gate_end_m - gate_start_m) * frac
        p = a @ t[:3, :3].T + t[:3, 3]
        dist, j = seed if it == 0 else _query_within(tree, p, gate)
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
        if np.linalg.norm(tvec) < 1e-3 and angle < 1e-4:
            converged = True
            break
    if converged:
        dist, _ = _query_within(tree, a @ t[:3, :3].T + t[:3, 3], gate_end_m)
        final_mse = _gated_mse(dist, gate_end_m)
    if not converged or final_mse > init_mse:
        return matrix_to_se3(
            se2_to_matrix(init),
            mse=init_mse,
            converged=False,
            success=bool(init_mse < success_mse),
        )
    return matrix_to_se3(t, mse=final_mse, converged=True, success=bool(final_mse < success_mse))
