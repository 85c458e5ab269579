"""End-to-end command-line behavior: exit codes, JSON output, artifacts."""

import json

import numpy as np
import pytest

from fresco import synth
from fresco.cli import main
from fresco.config import Config
from fresco.datasets import load_dataset, load_scan
from fresco.index import KeyframeIndex
from fresco.pipeline import describe
from conftest import write_bin


@pytest.fixture(scope="module")
def places(tmp_path_factory):
    """Six distinct places 15 m apart, with scans and an index on disk."""
    root = tmp_path_factory.mktemp("places")
    scenes = []
    rows = []
    for i in range(6):
        scene = synth.generate(
            synth.SceneSpec(seed=100 + i, pillars=18, walls=5, rings=2, range_limit=30.0)
        )
        scenes.append(scene)
        write_bin(root / f"{i:06d}.bin", scene.xyz)
        rows.append(f"{i},{15.0 * i},0.0,0.0,0.0")
    (root / "poses.csv").write_text("frame,x,y,z,yaw_deg\n" + "\n".join(rows) + "\n")
    index = tmp_path_factory.mktemp("idx") / "places.frix"
    assert main(["build", "--dataset", str(root), "--out", str(index)]) == 0
    return root, index, scenes


def test_build_reports_count_and_is_deterministic(places, tmp_path, capsys):
    root, index, _ = places
    capsys.readouterr()
    again = tmp_path / "again.frix"
    assert main(["build", "--dataset", str(root), "--out", str(again)]) == 0
    out = capsys.readouterr().out
    assert "indexed 6 frames" in out
    assert again.read_bytes() == index.read_bytes()


def test_build_writes_the_index_of_the_library_loop(places, tmp_path):
    root, index, _ = places
    cfg = Config()
    dataset = load_dataset(root, "generic")
    built = KeyframeIndex(exclusion_horizon=cfg.exclusion_horizon)
    for fid in sorted(dataset.scans):
        built.insert(fid, describe(load_scan(dataset.scans[fid]), cfg))
    built.save(tmp_path / "library.frix")
    assert (tmp_path / "library.frix").read_bytes() == index.read_bytes()


def test_build_empty_dataset_warns_but_succeeds(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    out_path = tmp_path / "empty.frix"
    assert main(["build", "--dataset", str(empty), "--out", str(out_path)]) == 0
    assert "no scans found" in capsys.readouterr().err
    assert len(KeyframeIndex.load(out_path)) == 0


def test_query_self_is_a_perfect_match(places, capsys):
    root, index, _ = places
    code = main(
        ["query", str(root / "000003.bin"), "--index", str(index),
         "--dataset", str(root), "--set", "exclusion_horizon=0"]
    )
    assert code == 0
    reply = json.loads(capsys.readouterr().out)
    assert set(reply) == {"match", "d_l1", "d_r", "shift", "rotation_deg", "pose"}
    assert reply["match"] == 3
    assert reply["d_l1"] < 1e-6  # stored descriptors are float32 quantized
    assert reply["shift"] == 0
    pose = reply["pose"]
    assert set(pose) == {
        "tx", "ty", "tz", "roll_deg", "pitch_deg", "yaw_deg", "mse", "converged", "success"
    }
    assert abs(pose["tx"]) < 0.05 and abs(pose["ty"]) < 0.05
    assert abs(pose["tz"]) < 0.05
    assert abs(pose["yaw_deg"]) < 0.5
    assert abs(pose["roll_deg"]) < 0.5 and abs(pose["pitch_deg"]) < 0.5
    assert pose["mse"] < 1e-9  # the 3D score of a scan against itself
    assert pose["converged"] is True
    assert pose["success"] is True


def _record_preprocess_inputs(monkeypatch):
    """The points of every cloud the CLI or the pipeline hands to ``preprocess``."""
    import fresco.cli as cli
    import fresco.pipeline as pipeline

    seen = []
    true_preprocess = pipeline.preprocess

    def recording(cloud, cfg):
        seen.append(cloud.xyz.tobytes())
        return true_preprocess(cloud, cfg)

    monkeypatch.setattr(pipeline, "preprocess", recording)
    monkeypatch.setattr(cli, "preprocess", recording)
    return seen


def test_query_with_dataset_preprocesses_each_scan_once(places, monkeypatch, capsys):
    root, index, _ = places
    seen = _record_preprocess_inputs(monkeypatch)
    code = main(
        ["query", str(root / "000002.bin"), "--index", str(index),
         "--dataset", str(root), "--set", "exclusion_horizon=0"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["pose"] is not None
    assert len(seen) == 2  # the query scan and its match, which is the same scene


def test_query_rotated_scan_recovers_heading(places, tmp_path, capsys):
    root, index, scenes = places
    turned = synth.perturb(scenes[2], tx=0.5, ty=-0.4, yaw_deg=37.0)
    scan = tmp_path / "000900.bin"
    write_bin(scan, turned.xyz)
    code = main(
        ["query", str(scan), "--index", str(index), "--dataset", str(root),
         "--set", "exclusion_horizon=0"]
    )
    assert code == 0
    reply = json.loads(capsys.readouterr().out)
    assert reply["match"] == 2
    # the descriptor sees rotation modulo 180 at 3 degree resolution
    assert abs(reply["rotation_deg"] - 37.0) <= 3.0
    assert abs(reply["pose"]["yaw_deg"] - 37.0) <= 1.0
    # the pose maps query points into the match frame, which is exactly the
    # viewpoint offset the query was re-observed from
    assert np.hypot(reply["pose"]["tx"] - 0.5, reply["pose"]["ty"] + 0.4) <= 0.1


def test_query_without_stage2_reports_the_scored_planar_pose(places, tmp_path, capsys):
    root, index, scenes = places
    turned = synth.perturb(scenes[2], tx=0.5, ty=-0.4, yaw_deg=37.0)
    scan = tmp_path / "000902.bin"
    write_bin(scan, turned.xyz)
    code = main(
        ["query", str(scan), "--index", str(index), "--dataset", str(root),
         "--set", "exclusion_horizon=0", "--set", "stage2=false"]
    )
    assert code == 0
    pose = json.loads(capsys.readouterr().out)["pose"]
    # the planar pose passes through: no z or tilt, stage 1's convergence
    assert (pose["tz"], pose["roll_deg"], pose["pitch_deg"]) == (0.0, 0.0, 0.0)
    assert abs(pose["yaw_deg"] - 37.0) <= 1.0
    assert pose["converged"] is True
    assert pose["success"] is True and pose["mse"] < 0.25


def test_query_without_dataset_has_no_pose(places, capsys):
    root, index, _ = places
    code = main(
        ["query", str(root / "000001.bin"), "--index", str(index),
         "--set", "exclusion_horizon=0"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["pose"] is None


def test_query_can_return_the_newest_map_frame_at_the_default_config(places, tmp_path, capsys):
    # the exclusion horizon (30 by default) is an eval rule; a map has no current scene
    root, _, _ = places
    three = tmp_path / "three"
    three.mkdir()
    for i in range(3):
        (three / f"{i:06d}.bin").write_bytes((root / f"{i:06d}.bin").read_bytes())
    index = tmp_path / "three.frix"
    assert main(["build", "--dataset", str(three), "--out", str(index)]) == 0
    capsys.readouterr()
    assert main(["query", str(three / "000002.bin"), "--index", str(index)]) == 0
    assert json.loads(capsys.readouterr().out)["match"] == 2


def test_query_reads_a_scan_whatever_its_file_name(places, tmp_path, capsys):
    # only dataset stems become frame ids; a query file's name is never parsed
    root, index, _ = places
    scan = tmp_path / "\u00b2\u00b3.bin"
    scan.write_bytes((root / "000003.bin").read_bytes())
    assert main(["query", str(scan), "--index", str(index), "--dataset", str(root)]) == 0
    assert json.loads(capsys.readouterr().out)["match"] == 3


def test_query_match_without_a_scan_in_the_dataset_is_an_io_error(places, tmp_path, capsys):
    # --dataset must hold the scans the index was built from
    root, index, _ = places
    other = tmp_path / "other"
    other.mkdir()
    (other / "000001.bin").write_bytes((root / "000001.bin").read_bytes())
    code = main(["query", str(root / "000003.bin"), "--index", str(index),
                 "--dataset", str(other)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "frame 3" in err and str(other) in err and "Traceback" not in err


def test_kitti_eval_without_calib_is_a_format_error(places, tmp_path, capsys):
    # poses.txt is in the camera frame; without Tr it cannot be scored against sensor motion
    root, _, _ = places
    (tmp_path / "velodyne").mkdir()
    for i in range(3):
        (tmp_path / "velodyne" / f"{i:06d}.bin").write_bytes((root / f"{i:06d}.bin").read_bytes())
    eye = "1 0 0 0 0 1 0 0 0 0 1 0\n"
    (tmp_path / "poses.txt").write_text(eye * 3)
    args = ["--dataset", str(tmp_path), "--format", "kitti"]
    code = main(["eval", *args, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "calib.txt" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    assert main(["build", *args, "--out", str(tmp_path / "x.frix")]) == 0
    (tmp_path / "calib.txt").write_text("Tr: " + eye)
    assert main(["eval", *args, "--out", str(tmp_path / "out")]) == 0


def test_eval_single_revisit_reaches_perfect_f1(loop_dataset, tmp_path, capsys):
    out = tmp_path / "cover"
    code = main(["eval", "--dataset", str(loop_dataset), "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("max F1 1.0000")
    report = json.loads((out / "report.json").read_text())
    assert report["pr"]["tp"] == 1
    assert report["pr"]["fp"] == 0
    assert report["pr"]["fn"] == 0
    # only the final frame revisits anything; everything else is a true negative
    assert report["pr"]["tn"] == report["dataset"]["queries"] - 1
    assert report["pose"]["count"] == 1
    assert not (out / "trajectory.svg").exists()  # svg is opt-in


def test_eval_stage2_off_skips_that_phase(loop_dataset, tmp_path):
    out = tmp_path / "nostage2"
    code = main(
        ["eval", "--dataset", str(loop_dataset), "--out", str(out), "--set", "stage2=off",
         "--svg"]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert "stage2" not in report["runtime_ms"]
    assert "stage1" in report["runtime_ms"]
    assert "score" in report["runtime_ms"]
    assert report["pose"]["count"] == 1
    assert (out / "trajectory.svg").exists()
    lines = (out / "poses.csv").read_text().splitlines()
    # every accepted match gets a row; the revisit must be among them, with
    # the planar pose passed through unrefined (zero z and tilt)
    revisit = [l for l in lines[1:] if l.startswith("199,0,")]
    assert len(revisit) == 1
    fields = revisit[0].split(",")
    assert len(fields) == 11
    assert float(fields[4]) == 0.0 and float(fields[5]) == 0.0
    assert abs(float(fields[2]) - 0.4) < 0.1 and abs(float(fields[3]) - 0.3) < 0.1
    assert abs(float(fields[7]) - 140.0) < 1.0


def test_bare_invocation_shows_usage(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_missing_required_option_is_a_usage_error(capsys):
    assert main(["query", "somefile.bin"]) == 1
    assert "error" in capsys.readouterr().err


def test_config_error_names_the_field(tmp_path, capsys):
    code = main(
        ["eval", "--dataset", str(tmp_path / "absent"), "--set", "angular_bins=121"]
    )
    assert code == 1
    assert "angular_bins" in capsys.readouterr().err


def test_non_finite_geometry_is_a_config_error(places, tmp_path, capsys):
    root, _, _ = places
    code = main(["build", "--dataset", str(root), "--out", str(tmp_path / "x.frix"),
                 "--set", "window_m=inf"])
    assert code == 1
    err = capsys.readouterr().err
    assert "window_m must be positive and finite" in err and "Traceback" not in err
    assert not (tmp_path / "x.frix").exists()


@pytest.mark.parametrize("field", ["ground_cell_m", "coarse_grid_m", "voxel_m"])
def test_grid_cell_too_fine_for_the_window_is_a_config_error(tmp_path, capsys, field):
    # the dataset is absent: an accepted config would exit 2 before any scan is read
    code = main(["eval", "--dataset", str(tmp_path / "absent"), "--out", str(tmp_path / "out"),
                 "--set", f"{field}=1e-300"])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{field} must be at least window_m / " in err and "Traceback" not in err


@pytest.mark.parametrize("field, value", [("grid_size", "1000000"), ("angular_bins", "20000")])
def test_dense_array_too_large_is_a_config_error(tmp_path, capsys, field, value):
    # the dataset is absent: an accepted config would exit 2 before any scan is read
    code = main(["eval", "--dataset", str(tmp_path / "absent"), "--out", str(tmp_path / "out"),
                 "--set", f"{field}={value}"])
    assert code == 1
    err = capsys.readouterr().err
    assert f"config error: {field} must " in err and "Traceback" not in err


@pytest.mark.parametrize("field", ["nicp_max_iters", "normal_neighbors", "cell_cap"])
def test_per_query_work_too_large_is_a_config_error(tmp_path, capsys, field):
    # the dataset is absent: an accepted config would exit 2 before any scan is read
    code = main(["eval", "--dataset", str(tmp_path / "absent"), "--out", str(tmp_path / "out"),
                 "--set", f"{field}=1000000"])
    assert code == 1
    err = capsys.readouterr().err
    assert f"config error: {field} must lie in " in err and "Traceback" not in err


@pytest.mark.parametrize("text", ["Infinity", "1e999"])
def test_infinite_int_in_a_config_file_is_a_config_error(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"version": 1, "cell_cap": {text}}}')
    assert main(["selftest", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "cell_cap: cannot interpret inf as int" in err
    assert "Traceback" not in err


def test_set_overrides_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"version": 1, "angular_bins": 122}')
    code = main(
        ["eval", "--dataset", str(tmp_path / "absent"), "--config", str(cfg),
         "--set", "angular_bins=121"]
    )
    assert code == 1
    assert "got 121" in capsys.readouterr().err


def test_missing_dataset_is_an_io_error(tmp_path, capsys):
    code = main(["build", "--dataset", str(tmp_path / "void"), "--out", str(tmp_path / "x.frix")])
    assert code == 2
    assert "fresco:" in capsys.readouterr().err


def test_corrupt_index_is_an_io_error(places, tmp_path, capsys):
    root, _, _ = places
    bad = tmp_path / "bad.frix"
    bad.write_bytes(b"JUNK" * 30)
    assert main(["query", str(root / "000000.bin"), "--index", str(bad)]) == 2
    assert "fresco:" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("angular_bins", 90), ("radial_bins", 16)])
def test_query_geometry_must_match_the_index(places, tmp_path, capsys, field, value):
    root, index, _ = places
    overrides = ["--set", "exclusion_horizon=0", "--set", f"{field}={value}"]
    code = main(["query", str(root / "000001.bin"), "--index", str(index)] + overrides)
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"built with {field}=" in err
    # an empty index holds no descriptors to disagree with
    empty = tmp_path / "empty.frix"
    KeyframeIndex().save(empty)
    assert main(["query", str(root / "000001.bin"), "--index", str(empty)] + overrides) == 0
    assert json.loads(capsys.readouterr().out)["match"] is None


@pytest.mark.parametrize("part", ["descriptor"])
def test_non_finite_index_value_is_a_format_error(places, tmp_path, capsys, part):
    root, index, _ = places
    raw = bytearray(index.read_bytes())
    where = 24 + 8 * 6 + 4 * 7  # header, six u64 ids, then into frame 0's descriptor
    raw[where : where + 4] = np.array([np.nan], dtype="<f4").tobytes()
    bad = tmp_path / "poisoned.frix"
    bad.write_bytes(bytes(raw))
    assert main(["query", str(root / "000000.bin"), "--index", str(bad)]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_degenerate_index_descriptor_is_a_format_error(places, tmp_path, capsys):
    root, index, _ = places
    raw = bytearray(index.read_bytes())
    size = 4 * 32 * 120  # default radial_bins x angular_bins float32
    second = 24 + 8 * 6 + size
    raw[second : second + size] = bytes(size)  # frame 1's descriptor is all zeros
    bad = tmp_path / "zeroed.frix"
    bad.write_bytes(bytes(raw))
    assert main(["query", str(root / "000000.bin"), "--index", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "frame 1" in err and "mean is not positive" in err


def test_index_entry_that_does_not_repeat_is_a_format_error(places, tmp_path, capsys):
    root, index, _ = places
    raw = index.read_bytes()
    body = 24 + 8 * 6  # header and six u64 ids, then the descriptors
    descs = np.frombuffer(raw, dtype="<f4", offset=body).reshape(6, 32, 120).copy()
    descs[2, 0, 100] += 1.0  # in frame 2's second half only
    bad = tmp_path / "unpaired.frix"
    bad.write_bytes(raw[:body] + descs.tobytes())
    assert main(["query", str(root / "000000.bin"), "--index", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "frame 2" in err and "does not repeat after half its width" in err


def test_version_1_index_asks_for_a_rebuild(places, tmp_path, capsys):
    root, index, _ = places
    raw = bytearray(index.read_bytes())
    raw[4:8] = np.array([1], dtype="<u4").tobytes()
    old = tmp_path / "v1.frix"
    old.write_bytes(bytes(raw))
    assert main(["query", str(root / "000000.bin"), "--index", str(old)]) == 2
    err = capsys.readouterr().err
    assert "version 1" in err and "fresco build" in err


def test_out_of_order_index_ids_are_a_format_error(places, tmp_path, capsys):
    root, index, _ = places
    raw = bytearray(index.read_bytes())
    raw[24:32] = np.array([9], dtype="<u8").tobytes()  # ids now read 9, 1, 2, ...
    bad = tmp_path / "reordered.frix"
    bad.write_bytes(bytes(raw))
    assert main(["query", str(root / "000000.bin"), "--index", str(bad)]) == 2
    assert "frame id 1" in capsys.readouterr().err


def test_eval_output_path_collision_is_an_io_error(places, tmp_path, capsys):
    root, _, _ = places
    blocker = tmp_path / "taken"
    blocker.write_text("occupied\n")
    assert main(["eval", "--dataset", str(root), "--out", str(blocker)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "fmt, name, raw, where",
    [
        pytest.param("generic", "poses.csv", b"frame,x,y,z,yaw_deg\n0,0,0,0,0\nnan,1,0,0,0\n",
                     "poses.csv:3", id="frame-nan"),
        pytest.param("generic", "poses.csv", b"0,0,0,0,0\n1e999,1,0,0,0\n", "poses.csv:2",
                     id="frame-overflow"),
        pytest.param("generic", "poses.csv", b"0,0,0,0,0\n1.5,1,0,0,0\n", "poses.csv:2",
                     id="frame-fraction"),
        pytest.param("generic", "poses.csv", b"0,0,0,0,0\n1,0,0,0,inf\n", "poses.csv:2",
                     id="yaw-inf"),
        pytest.param("generic", "poses.csv", b"0,0,0,0,0\n1,\xe9,0,0,0\n", "poses.csv:2",
                     id="poses-csv-not-utf8"),
        pytest.param("generic", "000001.txt", b"1 2 3\n4 5 \xff\n", "000001.txt:2",
                     id="scan-not-utf8"),
        pytest.param("generic", "\u00b2.bin", b"", "\u00b2.bin", id="superscript-stem"),
        pytest.param("generic", "18446744073709551616.bin", b"", "18446744073709551616.bin",
                     id="stem-past-u64"),
        pytest.param("kitti", "poses.txt", b"\x80\n", "poses.txt:1", id="poses-txt-not-utf8"),
        pytest.param("kitti", "calib.txt", b"P0: 0\nTr: \xff\n", "calib.txt:2",
                     id="calib-not-utf8"),
    ],
)
def test_malformed_dataset_text_is_a_format_error(tmp_path, capsys, fmt, name, raw, where):
    (tmp_path / "velodyne").mkdir()  # the kitti layout; a generic dataset ignores both
    (tmp_path / "poses.txt").write_text("1 0 0 0 0 1 0 0 0 0 1 0\n")
    (tmp_path / name).write_bytes(raw)
    out = str(tmp_path / "x.frix")
    code = main(["build", "--dataset", str(tmp_path), "--format", fmt, "--out", out])
    err = capsys.readouterr().err
    assert code == 2
    assert where in err and "Traceback" not in err


def test_all_ground_scan_is_degenerate(places, tmp_path, capsys):
    _, index, _ = places
    g = np.arange(-12.0, 12.0 + 1e-9, 0.4)
    gx, gy = np.meshgrid(g, g)
    plane = np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, -1.7)])
    scan = tmp_path / "000901.bin"
    write_bin(scan, plane)
    assert main(["query", str(scan), "--index", str(index)]) == 3
    err = capsys.readouterr().err
    assert "degenerate" in err and str(scan) in err


def test_build_names_the_scan_with_a_degenerate_descriptor(places, tmp_path, capsys):
    root, _, _ = places
    data = tmp_path / "data"
    data.mkdir()
    for i in range(3):
        (data / f"{i:06d}.bin").write_bytes((root / f"{i:06d}.bin").read_bytes())
    (data / "000003.bin").write_bytes(b"")
    out_path = tmp_path / "bad.frix"
    assert main(["build", "--dataset", str(data), "--out", str(out_path)]) == 3
    err = capsys.readouterr().err
    assert "degenerate" in err and "000003.bin" in err
    assert "Traceback" not in err
    assert not out_path.exists()


def test_selftest_passes_and_is_deterministic(capsys):
    assert main(["selftest"]) == 0
    first = capsys.readouterr().out
    assert first.count("PASS") == 6
    assert "FAIL" not in first
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out == first


def test_selftest_preprocesses_each_sample_once(monkeypatch, capsys):
    seen = _record_preprocess_inputs(monkeypatch)
    assert main(["selftest"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert seen and len(set(seen)) == len(seen)


def test_selftest_catches_a_broken_shift(monkeypatch, capsys):
    import fresco.matching as matching

    true_shift = matching.circular_shift
    monkeypatch.setattr(
        matching, "circular_shift", lambda d, k: true_shift(d, k + 1)
    )
    assert main(["selftest"]) == 1
    assert "FAIL shift-recovery" in capsys.readouterr().out
