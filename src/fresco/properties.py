"""The method's invariants, each one per-case rule with its tolerance.

``fresco selftest``, the acceptance gates and the unit tests choose their
own cases and judge each one with these rules.
"""

from __future__ import annotations

import numpy as np

from . import matching
from .pose import Se2Pose, Se3Pose, shift_to_rotation, wrap_angle
from .spectrum import log_spectrum

TRANSLATION_RTOL = 1e-9  # worst per-element relative change of the log spectrum
HALF_PERIOD_TOL = 1e-6
SHIFT_L1_TOL = 1e-12
ROTATION_TOL_DEG = 3.0  # modulo 180 degrees
POSE_TOL_M, POSE_TOL_DEG = 0.1, 1.0


def translation_deviation(img: np.ndarray, dr: int, dc: int) -> float:
    """Worst per-element relative deviation of the log spectrum under a cyclic roll."""
    a = log_spectrum(img)
    b = log_spectrum(np.roll(img, (dr, dc), axis=(0, 1)))
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12)
    return float(np.max(np.abs(a - b) / denom))


def half_periodic(desc: np.ndarray) -> bool:
    """Whether ``desc`` repeats after half its width, within HALF_PERIOD_TOL."""
    rolled = np.roll(desc, desc.shape[1] // 2, axis=1)
    return float(np.abs(desc - rolled).max()) <= HALF_PERIOD_TOL


def shift_recovered(desc: np.ndarray, k: int) -> bool:
    """Whether the shift search finds ``desc``'s own column shift by ``k`` in [0, width/2)."""
    # looked up through the module so a broken shift is caught, not hidden
    score = matching.best_shift_l1(desc, matching.circular_shift(desc, k))
    return score.best_shift == k and score.d_l1 <= SHIFT_L1_TOL


def rotation_recovered(turned: np.ndarray, desc: np.ndarray, yaw_deg: float) -> bool:
    """Whether the shift search recovers the yaw that turned a scene, modulo 180 degrees."""
    shift = matching.best_shift_l1(turned, desc).best_shift
    err = (shift_to_rotation(shift, desc.shape[1]) - yaw_deg + 90.0) % 180.0 - 90.0
    return abs(err) <= ROTATION_TOL_DEG


def pose_error(est: Se2Pose | Se3Pose, tx: float, ty: float, yaw_rad: float) -> tuple[float, float]:
    """An estimate's planar translation error (m) and wrapped absolute yaw error (degrees)."""
    rte_m = float(np.hypot(est.tx - tx, est.ty - ty))
    return rte_m, abs(float(np.degrees(wrap_angle(est.yaw - yaw_rad))))


def pose_recovered(est: Se2Pose | Se3Pose, tx: float, ty: float, yaw_deg: float) -> bool:
    """Whether an estimate's planar part lies within POSE_TOL_M and POSE_TOL_DEG of the truth."""
    err_t, err_r = pose_error(est, tx, ty, np.radians(yaw_deg))
    return err_t <= POSE_TOL_M and err_r <= POSE_TOL_DEG


def linear_scan(keys: np.ndarray, query_key: np.ndarray, k: int) -> list[int]:
    """Oracle for ``KeyframeIndex.retrieve``: positions of the ``k`` rows of ``keys``
    nearest ``query_key`` by exhaustive scan, nearest first, ties to the smaller one."""
    dist = np.linalg.norm(np.asarray(keys) - query_key, axis=1)
    return np.argsort(dist, kind="stable")[:k].tolist()
