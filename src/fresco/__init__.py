"""LiDAR place recognition from frequency-domain bird's-eye-view signatures.

Pipeline: crop and de-ground a scan, project it to a max-height image,
take the log-magnitude spectrum, and unroll it on polar rings.  Scene
translation leaves the descriptor unchanged and rotation becomes a circular
column shift, so a shift-searched comparison yields both a match score and
a yaw estimate that seeds planar registration.
"""

from .bev import make_bev, write_pgm
from .cloud import (
    FormatError,
    PointCloud,
    crop_window,
    empty_cloud,
    load_ascii_cloud,
    load_kitti_bin,
    remove_ground,
    save_ascii_cloud,
)
from .config import Config, ConfigError, apply_overrides, load_config
from .datasets import (
    Dataset,
    TrajectoryPose,
    load_dataset,
    load_generic_poses,
    load_kitti_calib,
    load_kitti_poses,
    load_scan,
)
from .evaluate import (
    PhaseTimer,
    PoseStats,
    PrPoint,
    PrSweep,
    QueryRecord,
    label_match,
    pose_metrics,
    pr_sweep,
    run_evaluation,
    runtime_report,
    sample_keyframes,
    trajectory_svg,
)
from .index import DegenerateDescriptorError, KeyframeIndex, MatchResult, make_key
from .matching import (
    MatchScore,
    best_shift_l1,
    circular_shift,
    row_cosine,
    shift_l1_table,
)
from .pipeline import (
    compact_2d,
    describe,
    describe_preprocessed,
    match,
    planar_pose,
    preprocess,
    relative_pose,
    stage1_pose,
)
from .pose import (
    Compact2dCloud,
    InsufficientStructureError,
    Se2Pose,
    Se3Pose,
    estimate_pose_stage1,
    extract_compact_2d,
    nicp_2d,
    refine_pose_3d,
    shift_to_rotation,
)
from .spectrum import log_spectrum, polar_unroll
from .synth import SceneSpec, generate, perturb, pillar_points, ring_points, wall_points

__version__ = "0.1.0"
