"""Dataset access: KITTI odometry sequences and a generic cloud directory.

A dataset is a directory of scans plus optional ground-truth poses.

KITTI layout::

    <root>/velodyne/000000.bin ...   scans, 16-byte float32 records
    <root>/poses.txt                 12 numbers per line, row-major 3x4
    <root>/calib.txt                 "Tr:" line, sensor-to-camera transform

Generic layout::

    <root>/000000.txt|.xyz|.bin ...  scans, numeric file stems are frame ids
    <root>/poses.csv                 "frame,x,y,z,yaw_deg" or frame + 12
                                     row-major 3x4 numbers per line

Pose files are optional (index building needs none); evaluation refuses a
dataset without one.  KITTI pose rows map camera coordinates to world, so
the calib Tr is applied to express every pose in the sensor frame.  When
calib.txt is absent the poses stay in the camera frame, whose axes are
permuted against the sensor's, so evaluation refuses such a dataset; index
building and queries need no poses.  Text files are UTF-8; malformed ones
raise FormatError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cloud import (
    FormatError,
    PointCloud,
    load_ascii_cloud,
    load_kitti_bin,
    parse_floats,
    read_text_lines,
)
from .pose import rot2

_SCAN_SUFFIXES = (".bin", ".txt", ".xyz")


@dataclass(frozen=True)
class TrajectoryPose:
    frame_id: int
    matrix: np.ndarray  # (4, 4) sensor-to-world

    @property
    def position(self) -> np.ndarray:
        """The sensor origin in the world frame, meters: a (3,) view of ``matrix``."""
        return self.matrix[:3, 3]


@dataclass
class Dataset:
    root: Path
    fmt: str  # "kitti" or "generic"
    scans: dict[int, Path]  # frame id -> scan file, insertion-ordered by id
    poses: list[TrajectoryPose] | None
    planar_axes: tuple[int, int]  # world axes spanning the driving plane


def load_scan(path) -> PointCloud:
    """Read one scan file, dispatching on suffix in any case.  The name is not
    parsed: a scan's frame id is its key in ``Dataset.scans``."""
    path = Path(path)
    if path.suffix.lower() == ".bin":
        return load_kitti_bin(path)
    return load_ascii_cloud(path)


def _stem_id(path: Path) -> int | None:
    """The frame id a numeric file stem names; None for other stems."""
    if not path.stem.isdigit():
        return None
    # a superscript digit passes isdigit; index files store ids as u64
    if not path.stem.isdecimal() or int(path.stem) >= 2**64:
        raise FormatError(f"{path}: file name is not a decimal frame id below 2**64")
    return int(path.stem)


def _homogeneous(rows: np.ndarray) -> np.ndarray:
    m = np.eye(4)
    m[:3, :] = rows.reshape(3, 4)
    return m


def load_kitti_calib(path) -> np.ndarray:
    """Extract the sensor-to-camera transform (the Tr line) as a 4x4 matrix."""
    for line in read_text_lines(path):
        if line.startswith("Tr:") or line.startswith("Tr "):
            vals = parse_floats(line.split()[1:], f"{path}: Tr line")
            if len(vals) != 12:
                raise FormatError(f"{path}: Tr line has {len(vals)} values, expected 12")
            return _homogeneous(np.array(vals))
    raise FormatError(f"{path}: no Tr line found")


def load_kitti_poses(path, sensor_to_cam: np.ndarray | None = None) -> list[TrajectoryPose]:
    """Parse 12-number pose rows; frame ids are line numbers.

    Each row maps camera coordinates at that frame to world coordinates.
    When ``sensor_to_cam`` is given the returned matrices map sensor
    coordinates to world instead, so downstream distances and relative
    poses live in the sensor frame.
    """
    poses = []
    for lineno, line in enumerate(read_text_lines(path)):
        if not line.strip():
            continue
        vals = parse_floats(line.split(), f"{path}:{lineno + 1}")
        if len(vals) != 12:
            raise FormatError(f"{path}:{lineno + 1}: {len(vals)} values, expected 12")
        m = _homogeneous(np.array(vals))
        if sensor_to_cam is not None:
            with np.errstate(over="ignore", invalid="ignore"):  # caught just below
                m = m @ sensor_to_cam
        if not np.isfinite(m).all():
            raise FormatError(f"{path}:{lineno + 1}: non-finite pose")
        poses.append(TrajectoryPose(lineno, m))
    return poses


def load_generic_poses(path) -> list[TrajectoryPose]:
    """Parse poses.csv rows: frame,x,y,z,yaw_deg or frame + 12 matrix numbers.
    Only the first row that is not blank or a comment may be a header."""
    poses = []
    last_id = None
    first_row = True
    for lineno, line in enumerate(read_text_lines(path)):
        text = line.strip()
        fields = [f.strip() for f in re.split(r"[,\s]+", text) if f.strip()]
        if not fields or text.startswith("#"):  # blank, separators only, or a comment
            continue
        if first_row:
            first_row = False
            if not _is_number(fields[0]):
                continue  # the header row
        vals = parse_floats(fields, f"{path}:{lineno + 1}")
        if len(vals) not in (5, 13):
            raise FormatError(
                f"{path}:{lineno + 1}: {len(vals)} fields, expected 5 (frame,x,y,z,yaw_deg)"
                " or 13 (frame + 3x4 matrix)"
            )
        if not vals[0].is_integer():  # also rejects nan and inf
            raise FormatError(f"{path}:{lineno + 1}: frame id {fields[0]} is not an integer")
        if not np.isfinite(vals).all():  # before rot2, which warns on an infinite yaw
            raise FormatError(f"{path}:{lineno + 1}: non-finite pose")
        fid = int(vals[0])
        if len(vals) == 5:
            m = np.eye(4)
            m[:2, :2] = rot2(np.radians(vals[4]))
            m[:3, 3] = vals[1:4]
        else:
            m = _homogeneous(np.array(vals[1:]))
        if last_id is not None and fid <= last_id:
            raise FormatError(f"{path}:{lineno + 1}: frame ids must be strictly increasing")
        last_id = fid
        poses.append(TrajectoryPose(fid, m))
    return poses


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _scan_files(directory: Path, suffixes) -> dict[int, Path]:
    found = {}
    for p in sorted(directory.iterdir()):
        fid = _stem_id(p) if p.suffix.lower() in suffixes else None
        if fid is not None:
            if fid in found:
                raise FormatError(f"{directory}: duplicate frame id {fid}")
            found[fid] = p
    return dict(sorted(found.items()))


def load_dataset(root, fmt: str) -> Dataset:
    """Discover scans and poses under a dataset root directory."""
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"{root}: not a directory")
    if fmt == "kitti":
        velodyne = root / "velodyne"
        if not velodyne.is_dir():
            raise FormatError(f"{root}: kitti dataset needs a velodyne/ directory")
        scans = _scan_files(velodyne, (".bin",))
        poses = None
        poses_path = root / "poses.txt"
        if poses_path.exists():
            calib_path = root / "calib.txt"
            tr = load_kitti_calib(calib_path) if calib_path.exists() else None
            poses = load_kitti_poses(poses_path, tr)
        return Dataset(root, fmt, scans, poses, planar_axes=(0, 2))
    if fmt == "generic":
        scans = _scan_files(root, _SCAN_SUFFIXES)
        poses_path = root / "poses.csv"
        poses = load_generic_poses(poses_path) if poses_path.exists() else None
        return Dataset(root, fmt, scans, poses, planar_axes=(0, 1))
    raise ValueError(f"unknown dataset format {fmt!r}")
