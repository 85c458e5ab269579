"""Cloud-to-descriptor and two-stage pose pipeline wired through a Config.

This is the one module that turns ``Config`` fields into layer calls:
``preprocess`` (crop and ground removal), ``describe_preprocessed`` (BEV,
log spectrum, polar descriptor), ``describe`` (both of those), ``match``
(an index's decision at the configured thresholds), ``compact_2d``
(planar registration input), ``planar_pose`` (two-branch planar NICP,
see ``pose._nicp_lockstep``), ``stage1_pose``
(``planar_pose`` of two raw clouds) and ``relative_pose`` (both stages).
The CLI and the evaluation harness call these instead of unpacking the
config themselves.  Registration reads only ``voxel_m``, ``angular_bins``
and ``stage2`` from the config; its other values are fixed, stage 1's as
``config.COARSE_GRID_M`` and the ``pose.COMPACT_*`` and ``pose.STAGE1_*``
constants, stage 2's as the ``pose.STAGE2_*`` constants.  The clouds these
functions take carry points only: a scan's frame id is its key in
``Dataset.scans``.  ``stage1_pose`` has no caller in the package: the
planar gates of ``tests/test_acceptance.py`` and the benchmark's
``relocalize`` round use it, until that round times ``relative_pose``
instead.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace

import numpy as np

from . import pose
from .bev import make_bev
from .cloud import PointCloud, crop_window, remove_ground
from .config import Config
from .index import KeyframeIndex, MatchResult
from .pose import Compact2dCloud, Se2Pose, Se3Pose, estimate_pose_stage1, extract_compact_2d
from .spectrum import log_spectrum, polar_unroll


def preprocess(cloud: PointCloud, cfg: Config) -> PointCloud:
    """Window crop, then ground and outlier removal."""
    cropped = crop_window(cloud, cfg.window_m)
    return remove_ground(cropped, cfg.ground_cell_m, cfg.ground_margin_m)


def describe_preprocessed(pre: PointCloud, cfg: Config) -> np.ndarray:
    """Descriptor of an already ``preprocess``ed cloud: project, transform, unroll."""
    bev = make_bev(pre, cfg.window_m, cfg.grid_size)
    return polar_unroll(log_spectrum(bev), cfg.crop_size, cfg.radial_bins, cfg.angular_bins)


def describe(cloud: PointCloud, cfg: Config) -> np.ndarray:
    """Full descriptor pipeline: ``describe_preprocessed`` of ``preprocess``."""
    return describe_preprocessed(preprocess(cloud, cfg), cfg)


def match(index: KeyframeIndex, desc: np.ndarray, cfg: Config) -> MatchResult:
    """``index.match`` with the configured candidate count and acceptance thresholds."""
    return index.match(desc, cfg.num_candidates, cfg.l1_threshold, cfg.cosine_threshold)


def compact_2d(pre: PointCloud, cfg: Config) -> Compact2dCloud:
    """Condense an already ``preprocess``ed cloud for planar registration."""
    return extract_compact_2d(pre, voxel_m=cfg.voxel_m)


def planar_pose(
    query: Compact2dCloud, candidate: Compact2dCloud, best_shift: int, cfg: Config
) -> Se2Pose:
    """Stage-1 relative pose between two compact clouds given the descriptor shift."""
    return estimate_pose_stage1(query, candidate, best_shift, cfg.angular_bins)


def stage1_pose(
    query: PointCloud, candidate: PointCloud, best_shift: int, cfg: Config
) -> Se2Pose:
    """Stage-1 relative pose between two raw clouds given the descriptor shift."""
    return planar_pose(
        compact_2d(preprocess(query, cfg), cfg),
        compact_2d(preprocess(candidate, cfg), cfg),
        best_shift,
        cfg,
    )


def relative_pose(
    query: PointCloud, candidate: PointCloud, best_shift: int, cfg: Config, phase=nullcontext
) -> Se3Pose:
    """Two-stage relative pose between two ``preprocess``ed clouds.

    Stage 1 is ``planar_pose`` on both clouds' ``compact_2d``.  With
    ``cfg.stage2`` the planar pose seeds ``refine_pose_3d``; without it the
    planar pose passes through with its 3D score and ``success`` from a
    zero-iteration refine, and ``converged`` from stage 1.  ``phase(name)``
    is entered around each step that runs to time it: "stage1", then
    "stage2" or, with stage 2 off, "score".
    """
    with phase("stage1"):
        planar = planar_pose(compact_2d(query, cfg), compact_2d(candidate, cfg), best_shift, cfg)
    # looked up through the module, so a wrapper installed there sees the call
    if not cfg.stage2:
        with phase("score"):
            seed = pose.refine_pose_3d(query, candidate, planar, cfg.voxel_m, max_iters=0)
        return replace(seed, converged=planar.converged)
    with phase("stage2"):
        return pose.refine_pose_3d(query, candidate, planar, cfg.voxel_m)
