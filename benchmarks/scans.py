"""Ground-bearing synthetic LiDAR scans with per-point ground labels.

``fresco.synth`` scenes are structure only, so ground removal has nothing
to peel from them.  Real scans are roughly half ground.  This module stands
each synth scene on a ground plane at the sensor height and samples that
plane the way a spinning LiDAR does: one ring of returns per downward beam,
at the range where the beam meets the plane, so point density falls with
range.  The ring pattern is centred on the scan's own sensor, which is what
a re-observation from another viewpoint sees.

The label travels in the reflectance channel: 1.0 for ground, 0.0 for
structure.  The pipeline ignores reflectance and every filter keeps it
aligned with its point, so labels can be counted after any stage.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fresco import synth
from fresco.cloud import PointCloud

SENSOR_HEIGHT_M = 1.73
# downward beam elevations of a 32-beam sensor and its azimuth step
BEAM_ELEVATION_DEG = np.linspace(-24.8, -3.0, 32)
AZIMUTH_STEP_DEG = 0.4
GROUND_NOISE_M = 0.02


@dataclass(frozen=True)
class Scan:
    """One scan and the generator's truth about it."""

    place: int  # which scene it observes; -1 for a place never mapped
    tx: float  # viewpoint in the scene frame, meters and degrees
    ty: float
    yaw_deg: float
    occlusion: tuple[float, float] | None = None


def scene(place_seed: int) -> PointCloud:
    """Structure of one place, standing on the ground plane."""
    spec = synth.SceneSpec(place_seed, pillars=22, walls=9, rings=1, range_limit=30.0)
    cloud = synth.generate(spec)
    cloud.xyz[:, 2] -= SENSOR_HEIGHT_M
    return cloud


def ground_rings(rng: np.random.Generator) -> np.ndarray:
    """Ground returns of one sweep in the sensor frame, ring by ring."""
    ranges = SENSOR_HEIGHT_M / np.tan(np.radians(-BEAM_ELEVATION_DEG))  # 3.7 to 33 m
    az = np.radians(np.arange(0.0, 360.0, AZIMUTH_STEP_DEG))
    phase = rng.uniform(0.0, np.radians(AZIMUTH_STEP_DEG), len(ranges))
    theta = az[None, :] + phase[:, None]
    r = ranges[:, None] * (1.0 + rng.normal(0.0, 0.002, theta.shape))
    z = -SENSOR_HEIGHT_M + rng.normal(0.0, GROUND_NOISE_M, theta.shape)
    return np.column_stack([(r * np.cos(theta)).ravel(), (r * np.sin(theta)).ravel(), z.ravel()])


def observe(structure: PointCloud, scan: Scan, rng: np.random.Generator) -> PointCloud:
    """The scan seen from ``scan``'s viewpoint: structure plus ground, labelled."""
    seen = synth.perturb(structure, scan.tx, scan.ty, scan.yaw_deg, scan.occlusion)
    ground = ground_rings(rng)
    if scan.occlusion is not None:
        start, width = scan.occlusion
        bearing = np.degrees(np.arctan2(ground[:, 1], ground[:, 0])) % 360.0
        ground = ground[(bearing - start) % 360.0 >= width]
    xyz = np.concatenate([seen.xyz, ground])
    label = np.concatenate([np.zeros(len(seen)), np.ones(len(ground))])
    return PointCloud(xyz, label)


def write_bin(path: Path, cloud: PointCloud) -> None:
    """Generic-layout scan file: float32 x, y, z, reflectance (the label).

    The file is flushed to disk before returning, so writing it back does
    not overlap the measurement.
    """
    with open(path, "wb") as fh:
        fh.write(np.column_stack([cloud.xyz, cloud.intensity]).astype("<f4").tobytes())
        fh.flush()
        os.fsync(fh.fileno())

