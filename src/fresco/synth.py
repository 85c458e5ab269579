"""Deterministic synthetic urban-like scenes for tests and demos.

Scenes are pillars (vertical point columns), walls (vertical planar strips)
and rings (cylindrical shells: tanks, silos, rotundas) sampled at roughly
0.2 m spacing.  ``perturb`` re-observes a scene from a displaced, rotated
viewpoint and can blank out a bearing sector the way a sensor mast shadows
part of the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud

_STEP = 0.2


@dataclass(frozen=True)
class SceneSpec:
    seed: int
    pillars: int = 30
    walls: int = 6
    rings: int = 0
    occlusion: tuple[float, float] | None = None  # (start_deg, width_deg)
    range_limit: float = 40.0


def pillar_points(x: float, y: float, height: float, step: float = _STEP) -> np.ndarray:
    """Vertical column of points at (x, y) from z=0 up to height."""
    zs = np.arange(0.0, height + 1e-9, step)
    return np.column_stack([np.full_like(zs, x), np.full_like(zs, y), zs])


def wall_points(
    cx: float, cy: float, yaw: float, length: float, height: float, step: float = _STEP
) -> np.ndarray:
    """Vertical planar strip centered at (cx, cy) along direction yaw (radians)."""
    s = np.arange(-length / 2.0, length / 2.0 + 1e-9, step)
    zs = np.arange(0.0, height + 1e-9, step)
    ss, zz = np.meshgrid(s, zs, indexing="ij")
    x = cx + ss * np.cos(yaw)
    y = cy + ss * np.sin(yaw)
    return np.column_stack([x.ravel(), y.ravel(), zz.ravel()])


def ring_points(
    cx: float, cy: float, radius: float, height: float, step: float = _STEP
) -> np.ndarray:
    """Cylindrical shell of points centered at (cx, cy), z=0 up to height."""
    n = max(int(np.ceil(2.0 * np.pi * radius / step)), 8)
    theta = np.arange(n) * (2.0 * np.pi / n)
    zs = np.arange(0.0, height + 1e-9, step)
    xy = np.column_stack([cx + radius * np.cos(theta), cy + radius * np.sin(theta)])
    return np.column_stack([np.repeat(xy, len(zs), axis=0), np.tile(zs, n)])


def _occlusion_mask(xy: np.ndarray, start_deg: float, width_deg: float) -> np.ndarray:
    """True for points inside the blanked bearing sector [start, start+width)."""
    bearing = np.degrees(np.arctan2(xy[:, 1], xy[:, 0])) % 360.0
    return (bearing - start_deg) % 360.0 < width_deg


def generate(spec: SceneSpec) -> PointCloud:
    """Build the scene for a spec; identical specs yield bit-identical clouds.

    Layout style (ring landmark sizes, structure clustering, height and
    length ranges) is drawn from the seed so different seeds produce
    structurally distinct places, not just reshuffled copies of one urban
    texture.  Ring landmarks do most of the work of making a place
    recognizable: a cylinder spreads its footprint over every bearing, so
    a blanked sector removes a proportional slice instead of a whole
    landmark, and its radius survives in what remains.  Each ring site is
    a group of one to three concentric shells.
    """
    rng = np.random.default_rng(spec.seed)
    parts = []
    for _ in range(spec.rings):
        cx, cy = rng.uniform(-0.35, 0.35, 2) * spec.range_limit
        radius = rng.uniform(4.0, 0.7 * spec.range_limit)
        height = rng.uniform(2.0, 8.0)
        shells = int(rng.integers(1, 4))
        gap = rng.uniform(1.2, 3.0)
        for k in range(shells):
            r_k = radius - k * gap
            if r_k > 1.5:
                parts.append(ring_points(cx, cy, r_k, height))
    n_clusters = int(rng.integers(4, 9))
    centers = rng.uniform(-0.8, 0.8, (n_clusters, 2)) * spec.range_limit
    spread = rng.uniform(0.08, 0.3) * spec.range_limit
    h_lo, h_hi = sorted(rng.uniform(2.0, 12.0, 2))
    len_lo, len_hi = sorted(rng.uniform(4.0, 30.0, 2))

    def place():
        base = centers[rng.integers(0, n_clusters)]
        return base + rng.normal(0.0, spread, 2)

    for _ in range(spec.pillars):
        x, y = place()
        parts.append(pillar_points(x, y, rng.uniform(h_lo, h_hi)))
    for _ in range(spec.walls):
        x, y = place()
        parts.append(
            wall_points(
                x,
                y,
                rng.uniform(0.0, np.pi),
                rng.uniform(len_lo, len_hi),
                rng.uniform(h_lo, h_hi),
            )
        )
    xyz = np.concatenate(parts) if parts else np.empty((0, 3))
    keep = np.hypot(xyz[:, 0], xyz[:, 1]) <= spec.range_limit
    xyz = xyz[keep]
    if spec.occlusion is not None:
        xyz = xyz[~_occlusion_mask(xyz[:, :2], *spec.occlusion)]
    return PointCloud(xyz)


def perturb(
    cloud: PointCloud,
    tx: float = 0.0,
    ty: float = 0.0,
    yaw_deg: float = 0.0,
    occlusion: tuple[float, float] | None = None,
) -> PointCloud:
    """Re-observe a scene from viewpoint (tx, ty, yaw).

    Applies the inverse viewpoint transform to the points (the scene appears
    to rotate opposite to the sensor: yaw 90 deg sends (1, 0) to (0, -1)),
    then deletes the occlusion sector in the new frame's bearing.
    """
    psi = np.radians(yaw_deg)
    c, s = np.cos(psi), np.sin(psi)
    rot_inv = np.array([[c, s], [-s, c]])
    xy = (cloud.xyz[:, :2] - np.array([tx, ty])) @ rot_inv.T
    xyz = np.column_stack([xy, cloud.xyz[:, 2]])
    out = PointCloud(xyz, cloud.intensity, cloud.dropped)
    if occlusion is not None:
        out = out.select(~_occlusion_mask(xy, *occlusion))
    return out
