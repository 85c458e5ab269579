"""Dataset discovery and pose-file parsing for both on-disk layouts."""

import dataclasses

import numpy as np
import pytest

from fresco.cloud import FormatError
from fresco.datasets import (
    TrajectoryPose,
    load_dataset,
    load_generic_poses,
    load_kitti_calib,
    load_kitti_poses,
    load_scan,
)
from conftest import write_bin


def test_load_scan_dispatch(tmp_path):
    write_bin(tmp_path / "000007.bin", np.array([[1.0, 2.0, 3.0]]))
    (tmp_path / "8.txt").write_text("4 5 6\n")
    a = load_scan(tmp_path / "000007.bin")
    b = load_scan(tmp_path / "8.txt")
    np.testing.assert_allclose(a.xyz, [[1, 2, 3]])
    np.testing.assert_allclose(b.xyz, [[4, 5, 6]])


def _write_calib(path, tr_vals):
    lines = ["P0: " + " ".join(["0"] * 12), "Tr: " + " ".join(str(v) for v in tr_vals)]
    path.write_text("\n".join(lines) + "\n")


def test_kitti_calib_parse(tmp_path):
    vals = [0, -1, 0, 0.27, 0, 0, -1, 0, 1, 0, 0, -0.08]
    _write_calib(tmp_path / "calib.txt", vals)
    m = load_kitti_calib(tmp_path / "calib.txt")
    np.testing.assert_allclose(m[:3, :], np.array(vals, dtype=float).reshape(3, 4))
    np.testing.assert_allclose(m[3], [0, 0, 0, 1])


def test_kitti_calib_rejects_bad_counts_and_values(tmp_path):
    p = tmp_path / "calib.txt"
    _write_calib(p, [1, 2, 3])
    with pytest.raises(FormatError, match="expected 12"):
        load_kitti_calib(p)
    p.write_text("P0: 1 2 3\n")
    with pytest.raises(FormatError, match="no Tr line"):
        load_kitti_calib(p)
    _write_calib(p, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, "x"])
    with pytest.raises(FormatError, match="non-numeric"):
        load_kitti_calib(p)


def _kitti_pose_line(m):
    return " ".join(f"{v}" for v in np.asarray(m, dtype=float)[:3, :].ravel())


def test_kitti_poses_frame_ids_and_sensor_transform(tmp_path):
    cam0 = np.eye(4)
    cam1 = np.eye(4)
    cam1[0, 3], cam1[2, 3] = 1.0, 2.0
    p = tmp_path / "poses.txt"
    p.write_text(_kitti_pose_line(cam0) + "\n" + _kitti_pose_line(cam1) + "\n")

    tr = np.eye(4)
    tr[0, 3] = 0.27  # sensor sits 27 cm ahead of the camera
    poses = load_kitti_poses(p, sensor_to_cam=tr)
    assert [q.frame_id for q in poses] == [0, 1]
    # oracle: the sensor origin in world coordinates is cam_pose @ tr applied to 0
    for q, cam in zip(poses, (cam0, cam1)):
        np.testing.assert_allclose(q.matrix, cam @ tr)
        np.testing.assert_allclose(q.position, (cam @ tr)[:3, 3])


def test_kitti_poses_reject_malformed(tmp_path):
    p = tmp_path / "poses.txt"
    p.write_text("1 0 0 0 0 1 0 0 0 0 1\n")  # 11 values
    with pytest.raises(FormatError, match="poses.txt:1"):
        load_kitti_poses(p)
    p.write_text("1 0 0 0 0 1 0 0 0 0 1 zero\n")
    with pytest.raises(FormatError, match="non-numeric"):
        load_kitti_poses(p)
    p.write_text(_kitti_pose_line(np.full((4, 4), np.nan)) + "\n")
    with pytest.raises(FormatError, match="non-finite"):
        load_kitti_poses(p)


def test_kitti_poses_overflowing_the_calib_are_non_finite(tmp_path):
    p = tmp_path / "poses.txt"
    p.write_text(_kitti_pose_line(np.diag([1e308, 1.0, 1.0, 1.0])) + "\n")
    # the overflow is reported as a FormatError, not as a numpy RuntimeWarning
    with pytest.raises(FormatError, match="poses.txt:1: non-finite"):
        load_kitti_poses(p, sensor_to_cam=np.diag([1e308, 1.0, 1.0, 1.0]))


def test_trajectory_pose_position_is_a_view_of_its_matrix():
    m = np.eye(4)
    m[:3, 3] = [1.0, -2.0, 3.5]
    pose = TrajectoryPose(7, m)
    assert [f.name for f in dataclasses.fields(TrajectoryPose)] == ["frame_id", "matrix"]
    np.testing.assert_array_equal(pose.position, m[:3, 3])
    assert np.shares_memory(pose.position, m)
    with pytest.raises(AttributeError):
        pose.position = np.zeros(3)


def test_generic_poses_five_field_form(tmp_path):
    p = tmp_path / "poses.csv"
    p.write_text("frame,x,y,z,yaw_deg\n0,1.0,2.0,0.5,90\n3.0,4.0,5.0,0.0,0\n")
    poses = load_generic_poses(p)
    assert [q.frame_id for q in poses] == [0, 3]
    np.testing.assert_allclose(poses[0].position, [1.0, 2.0, 0.5])
    np.testing.assert_allclose(
        poses[0].matrix[:2, :2], [[0.0, -1.0], [1.0, 0.0]], atol=1e-12
    )


def test_generic_poses_matrix_form(tmp_path):
    m = np.eye(4)
    m[:3, 3] = [7.0, 8.0, 9.0]
    p = tmp_path / "poses.csv"
    p.write_text("5 " + " ".join(str(v) for v in m[:3, :].ravel()) + "\n")
    poses = load_generic_poses(p)
    assert poses[0].frame_id == 5
    np.testing.assert_allclose(poses[0].matrix, m)


def test_generic_poses_header_after_comment(tmp_path):
    p = tmp_path / "poses.csv"
    p.write_text("# trajectory dump\nframe,x,y,z,yaw_deg\n1,0,0,0,0\n")
    assert len(load_generic_poses(p)) == 1


def test_generic_poses_allow_one_header_row_only(tmp_path):
    p = tmp_path / "poses.csv"
    p.write_text("frame,x,y,z,yaw_deg\n1O,0,0,0,0\n2,1,0,0,0\n")  # a mistyped frame id
    with pytest.raises(FormatError, match=r"poses\.csv:2: non-numeric"):
        load_generic_poses(p)
    p.write_text("# dump\nframe,x,y,z,yaw_deg\n\n# again\nframe,x,y,z,yaw_deg\n0,0,0,0,0\n")
    with pytest.raises(FormatError, match=r"poses\.csv:5: non-numeric"):
        load_generic_poses(p)


def test_generic_poses_reject_malformed(tmp_path):
    p = tmp_path / "poses.csv"
    p.write_text("2,0,0,0,0\n1,0,0,0,0\n")
    with pytest.raises(FormatError, match="strictly increasing"):
        load_generic_poses(p)
    p.write_text("0,0,0,0,0\n1,zero,0,0,0\n")
    with pytest.raises(FormatError, match="poses.csv:2"):
        load_generic_poses(p)
    p.write_text("0,0,0,0,0,0,0\n")
    with pytest.raises(FormatError, match="expected 5"):
        load_generic_poses(p)
    p.write_text("0,0,0,inf,0\n")
    with pytest.raises(FormatError, match="non-finite"):
        load_generic_poses(p)


def test_generic_dataset_layout(tmp_path):
    for i in (0, 2, 5):
        write_bin(tmp_path / f"{i:06d}.bin", np.array([[1.0, 2.0, 3.0]]))
    (tmp_path / "poses.csv").write_text("0,0,0,0,0\n2,1,0,0,0\n5,2,0,0,0\n")
    (tmp_path / "notes.txt").write_text("not a scan\n")
    ds = load_dataset(tmp_path, "generic")
    assert list(ds.scans) == [0, 2, 5]
    assert ds.planar_axes == (0, 1)
    assert len(ds.poses) == 3
    assert [p.frame_id for p in ds.poses] == [0, 2, 5]
    assert ds.poses[2].position[0] == 2.0


def test_generic_dataset_without_poses(tmp_path):
    write_bin(tmp_path / "000000.bin", np.array([[1.0, 2.0, 3.0]]))
    ds = load_dataset(tmp_path, "generic")
    assert ds.poses is None


def test_duplicate_frame_ids_rejected(tmp_path):
    (tmp_path / "000001.txt").write_text("1 2 3\n")
    (tmp_path / "1.xyz").write_text("4 5 6\n")
    with pytest.raises(FormatError, match="duplicate frame id 1"):
        load_dataset(tmp_path, "generic")


def test_kitti_dataset_layout(tmp_path):
    velo = tmp_path / "velodyne"
    velo.mkdir()
    for i in range(3):
        write_bin(velo / f"{i:06d}.bin", np.array([[1.0, 2.0, 3.0]]))
    (tmp_path / "poses.txt").write_text(
        "".join(_kitti_pose_line(np.eye(4)) + "\n" for _ in range(3))
    )
    ds = load_dataset(tmp_path, "kitti")
    assert list(ds.scans) == [0, 1, 2]
    assert ds.planar_axes == (0, 2)
    assert len(ds.poses) == 3


@pytest.mark.parametrize("fmt", ["generic", "kitti"])
def test_upper_case_bin_scans_are_read_as_binary(tmp_path, fmt):
    scan_dir = tmp_path / "velodyne" if fmt == "kitti" else tmp_path
    scan_dir.mkdir(exist_ok=True)
    write_bin(scan_dir / "000001.BIN", np.array([[1.0, 2.0, 3.0]]))
    ds = load_dataset(tmp_path, fmt)
    assert list(ds.scans) == [1]
    np.testing.assert_allclose(load_scan(ds.scans[1]).xyz, [[1, 2, 3]])


def test_kitti_dataset_requires_velodyne_dir(tmp_path):
    with pytest.raises(FormatError, match="velodyne"):
        load_dataset(tmp_path, "kitti")


def test_dataset_root_must_exist(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "absent", "generic")


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown dataset format"):
        load_dataset(tmp_path, "nuscenes")
