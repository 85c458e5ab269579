"""Point-cloud IO, cropping, and ground removal."""

import struct
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fresco import cloud as cloud_mod
from fresco.cloud import (
    FormatError,
    PointCloud,
    clip_height_band,
    crop_window,
    load_ascii_cloud,
    load_kitti_bin,
    remove_ground,
    save_ascii_cloud,
)


def _pack(*records) -> bytes:
    return b"".join(struct.pack("<4f", *r) for r in records)


def test_kitti_bin_single_record(tmp_path):
    p = tmp_path / "000000.bin"
    p.write_bytes(_pack((1.0, 2.0, 3.0, 0.5)))
    cloud = load_kitti_bin(p)
    assert cloud.xyz.shape == (1, 3)
    np.testing.assert_array_equal(cloud.xyz[0], [1.0, 2.0, 3.0])
    assert cloud.intensity is not None
    assert cloud.intensity[0] == 0.5
    assert cloud.dropped == 0


def test_kitti_bin_empty_file(tmp_path):
    p = tmp_path / "empty.bin"
    p.write_bytes(b"")
    cloud = load_kitti_bin(p)
    assert cloud.xyz.shape == (0, 3)


def test_kitti_bin_drops_non_finite(tmp_path):
    p = tmp_path / "nan.bin"
    p.write_bytes(_pack((1.0, 2.0, 3.0, 0.0), (np.nan, 0.0, 0.0, 0.0)))
    cloud = load_kitti_bin(p)
    assert cloud.xyz.shape == (1, 3)
    assert cloud.dropped == 1


def test_kitti_bin_truncation_names_offset(tmp_path):
    p = tmp_path / "trunc.bin"
    p.write_bytes(_pack((1.0, 2.0, 3.0, 0.0)) + b"\x00" * 4)
    with pytest.raises(FormatError, match="byte offset 16"):
        load_kitti_bin(p)


def test_ascii_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    xyz = rng.uniform(-10, 10, (50, 3))
    inten = rng.uniform(0, 1, 50)
    p = tmp_path / "cloud.txt"
    save_ascii_cloud(PointCloud(xyz=xyz, intensity=inten), p)
    back = load_ascii_cloud(p)
    np.testing.assert_allclose(back.xyz, xyz, atol=1e-5)
    np.testing.assert_allclose(back.intensity, inten, atol=1e-5)


def test_ascii_comments_and_three_columns(tmp_path):
    p = tmp_path / "c.xyz"
    p.write_text("# header comment\n1 2 3\n4 5 6\n")
    cloud = load_ascii_cloud(p)
    assert cloud.xyz.shape == (2, 3)
    assert cloud.intensity is None


def test_ascii_wrong_column_count_names_line(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 2 3\n1 2\n")
    with pytest.raises(FormatError, match="line 2"):
        load_ascii_cloud(p)


def test_ascii_non_numeric_names_line(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 2 3\n4 five 6\n")
    with pytest.raises(FormatError, match="line 2"):
        load_ascii_cloud(p)


def test_ascii_drops_non_finite(tmp_path):
    p = tmp_path / "n.txt"
    p.write_text("1 2 3\nnan 2 3\n")
    cloud = load_ascii_cloud(p)
    assert cloud.xyz.shape == (1, 3)
    assert cloud.dropped == 1


def test_crop_boundary_is_inclusive():
    xyz = np.array([[40.0, -40.0, 1.0], [41.0, 0.0, 1.0], [0.0, 40.001, 1.0]])
    kept = crop_window(PointCloud(xyz=xyz), window_m=80.0)
    np.testing.assert_array_equal(kept.xyz, xyz[:1])


def test_crop_against_recount():
    rng = np.random.default_rng(3)
    xyz = rng.uniform(-60, 60, (1000, 3))
    # independent recount of what should survive an 80 m window
    want = (np.abs(xyz[:, 0]) <= 40.0) & (np.abs(xyz[:, 1]) <= 40.0)
    kept = crop_window(PointCloud(xyz=xyz), window_m=80.0)
    np.testing.assert_array_equal(kept.xyz, xyz[want])


def test_crop_idempotent():
    rng = np.random.default_rng(4)
    cloud = PointCloud(xyz=rng.uniform(-60, 60, (500, 3)))
    once = crop_window(cloud, 80.0)
    twice = crop_window(once, 80.0)
    np.testing.assert_array_equal(once.xyz, twice.xyz)


def test_crop_rejects_bad_window():
    with pytest.raises(ValueError):
        crop_window(PointCloud(xyz=np.zeros((1, 3))), 0.0)


def test_height_band_keeps_interior():
    xyz = np.array([[0, 0, -5.0], [0, 0, 0.0], [0, 0, 35.0]])
    kept = clip_height_band(PointCloud(xyz=xyz))
    np.testing.assert_array_equal(kept.xyz, xyz[1:2])


def _ground_plane(z=-1.7, span=12.0, step=0.4):
    g = np.arange(-span, span + 1e-9, step)
    gx, gy = np.meshgrid(g, g)
    return np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, z)])


def test_remove_ground_flat_plane_vanishes():
    cloud = PointCloud(xyz=_ground_plane())
    out = remove_ground(cloud)
    assert out.xyz.shape[0] == 0


def test_remove_ground_keeps_structure():
    plane = _ground_plane()
    rng = np.random.default_rng(5)
    pillar = np.column_stack(
        [
            6.0 + rng.normal(0, 0.05, 200),
            -2.0 + rng.normal(0, 0.05, 200),
            rng.uniform(0.5, 5.0, 200),
        ]
    )
    out = remove_ground(PointCloud(xyz=np.vstack([plane, pillar])))
    # exactly the pillar points survive; order is preserved within the keep mask
    assert out.xyz.shape[0] == pillar.shape[0]
    np.testing.assert_array_equal(np.sort(out.xyz, axis=0), np.sort(pillar, axis=0))


def test_remove_ground_empty_in_empty_out():
    out = remove_ground(PointCloud(xyz=np.zeros((0, 3))))
    assert out.xyz.shape[0] == 0


def test_remove_ground_idempotent():
    from fresco import synth

    scene = synth.generate(synth.SceneSpec(seed=11, pillars=20, walls=5, rings=2))
    mixed = PointCloud(xyz=np.vstack([scene.xyz, _ground_plane()]))
    once = remove_ground(mixed)
    twice = remove_ground(once)
    np.testing.assert_array_equal(once.xyz, twice.xyz)


def test_remove_ground_never_synthesizes_points():
    rng = np.random.default_rng(6)
    xyz = rng.uniform(-20, 20, (800, 3))
    out = remove_ground(PointCloud(xyz=xyz))
    have = {tuple(row) for row in xyz.tolist()}
    assert all(tuple(row) in have for row in out.xyz.tolist())


def _whole_grid_median(grid):
    """The former donor rule: nanmedian over every cell's 8 neighbors."""
    nr, nc = grid.shape
    pad = np.full((nr + 2, nc + 2), np.nan)
    pad[1:-1, 1:-1] = grid
    stack = np.stack(
        [
            pad[1 + dr : 1 + dr + nr, 1 + dc : 1 + dc + nc]
            for dr in (-1, 0, 1)
            for dc in (-1, 0, 1)
            if (dr, dc) != (0, 0)
        ]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return np.nanmedian(stack, axis=0).ravel()


def _sparse_ground_scene(seed):
    """Structure on a ground whose density falls with range, so that the
    outer cells hold one or two ground returns."""
    from fresco import synth

    rng = np.random.default_rng(seed)
    scene = synth.generate(synth.SceneSpec(seed=seed, pillars=16, walls=4, rings=1))
    r = rng.uniform(1.0, 30.0, 6000)
    a = rng.uniform(0.0, 2.0 * np.pi, r.size)
    ground = np.column_stack([r * np.cos(a), r * np.sin(a), rng.normal(-1.73, 0.02, r.size)])
    return PointCloud(xyz=np.vstack([scene.xyz, ground]))


@pytest.mark.parametrize("seed", range(6))
def test_neighbor_median_matches_whole_grid_nanmedian(seed):
    rng = np.random.default_rng(seed)
    nr, nc = rng.integers(1, 12, 2)
    grid = rng.normal(-1.7, 0.3, (nr, nc))
    grid[rng.random((nr, nc)) < rng.uniform(0.2, 0.9)] = np.nan
    cells = np.flatnonzero(rng.random(nr * nc) < 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = cloud_mod._neighbor_median(grid, cells)
    np.testing.assert_array_equal(got, _whole_grid_median(grid)[cells])


def _sparse_cells(cloud, cell_m=1.0):
    """Flat indices of the grid cells holding one or two points."""
    x, y, _ = clip_height_band(cloud).xyz.T
    ci = np.floor((x - x.min()) / cell_m).astype(np.int64)
    cj = np.floor((y - y.min()) / cell_m).astype(np.int64)
    count = np.bincount(ci * (int(cj.max()) + 1) + cj)
    return np.flatnonzero((count > 0) & (count < 3))


def test_sparse_cell_ground_mask_matches_whole_grid_rule(monkeypatch):
    scans = [_sparse_ground_scene(seed) for seed in (21, 22, 23)]
    shipped = [remove_ground(c).xyz for c in scans]
    calls = []

    def oracle(grid, cells):
        out = _whole_grid_median(grid)[cells]
        calls.append((cells, int(np.isfinite(out).sum())))
        return out

    monkeypatch.setattr(cloud_mod, "_neighbor_median", oracle)
    for c, got in zip(scans, shipped):
        np.testing.assert_array_equal(got, remove_ground(c).xyz)
    # only the sparse cells borrow a floor, and every scan has donors
    for c, (cells, donors) in zip(scans, calls):
        np.testing.assert_array_equal(cells, _sparse_cells(c))
        assert donors > 0


def test_remove_ground_in_threads_raises_no_runtime_warning():
    scans = [_sparse_ground_scene(seed) for seed in (31, 32, 33, 34)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with ThreadPoolExecutor(max_workers=2) as pool:
            outs = list(pool.map(remove_ground, scans))
    assert all(0 < len(o) < len(c) for o, c in zip(outs, scans))


def _remove_ground_by_full_masks(cloud, cell_m=1.0, z_margin=0.3):
    """The former ground filter, kept as the oracle: every peel pass re-masks
    the whole cloud instead of working on the points not peeled yet."""
    sub = clip_height_band(cloud)
    if len(sub) == 0:
        return sub
    x, y, z = sub.xyz.T
    ci = np.floor((x - x.min()) / cell_m).astype(np.int64)
    cj = np.floor((y - y.min()) / cell_m).astype(np.int64)
    nr, nc = int(ci.max()) + 1, int(cj.max()) + 1
    cid = ci * nc + cj
    ncell = nr * nc
    ground = np.zeros(len(sub), dtype=bool)
    floor = np.full(ncell, np.nan)
    while True:
        alive = ~ground
        count = np.bincount(cid[alive], minlength=ncell)
        zmin = np.full(ncell, np.inf)
        np.minimum.at(zmin, cid[alive], z[alive])
        band = alive & (z < zmin[cid] + z_margin)
        gap = alive & ~band & (z < zmin[cid] + 2.0 * z_margin)
        support = np.bincount(cid[band], minlength=ncell)
        blocked = np.bincount(cid[gap], minlength=ncell)
        peel = (count >= 3) & (support >= 3) & (blocked == 0)
        if not peel.any():
            break
        first = peel & np.isnan(floor)
        floor[first] = zmin[first]
        ground |= band & peel[cid]
    count = np.bincount(cid, minlength=ncell)
    sparse = (count > 0) & (count < 3)
    if sparse.any() and np.isfinite(floor).any():
        donor = np.full(ncell, np.nan)
        cells = np.flatnonzero(sparse)
        donor[cells] = _whole_grid_median(floor.reshape(nr, nc))[cells]
        m = np.isfinite(donor)[cid]
        ground[m] |= z[m] < donor[cid[m]] + z_margin
    return PointCloud(sub.xyz[~ground], None if sub.intensity is None else sub.intensity[~ground])


@pytest.mark.parametrize("seed", [21, 22, 41, 42])
def test_remove_ground_equals_the_full_mask_peel(seed):
    scan = _sparse_ground_scene(seed)
    scan = PointCloud(scan.xyz, np.arange(len(scan), dtype=float))  # labels every point
    got, want = remove_ground(scan), _remove_ground_by_full_masks(scan)
    np.testing.assert_array_equal(got.xyz, want.xyz)
    np.testing.assert_array_equal(got.intensity, want.intensity)
    assert 0 < len(got) < len(scan)


@pytest.mark.parametrize("with_intensity", [True, False])
def test_select_equals_boolean_indexing(with_intensity):
    rng = np.random.default_rng(40)
    xyz = rng.uniform(-5.0, 5.0, (50, 3))
    inten = rng.uniform(0.0, 1.0, 50) if with_intensity else None
    cloud = PointCloud(xyz, inten, frame_id=7, dropped=2)
    masks = {
        "all": np.ones(50, dtype=bool),
        "none": np.zeros(50, dtype=bool),
        "some": rng.random(50) < 0.5,
        "index array": rng.integers(-50, 50, 20),
    }
    for name, mask in masks.items():
        got = cloud.select(mask)
        assert got.xyz.shape == xyz[mask].shape, name
        np.testing.assert_array_equal(got.xyz, xyz[mask])
        if inten is None:
            assert got.intensity is None
        else:
            np.testing.assert_array_equal(got.intensity, inten[mask])
        assert (got.frame_id, got.dropped) == (7, 2)
    with pytest.raises(IndexError):
        cloud.select(np.ones(49, dtype=bool))


def test_filters_that_keep_every_point_share_the_input_arrays():
    rng = np.random.default_rng(41)
    cloud = PointCloud(rng.uniform(-2.0, 2.0, (40, 3)), rng.uniform(0.0, 1.0, 40))
    for kept in (cloud.select(np.ones(40, dtype=bool)), crop_window(cloud, 80.0),
                 clip_height_band(cloud)):
        assert kept is not cloud
        assert np.shares_memory(kept.xyz, cloud.xyz)
        assert np.shares_memory(kept.intensity, cloud.intensity)
        np.testing.assert_array_equal(kept.xyz, cloud.xyz)
    assert not np.shares_memory(crop_window(cloud, 2.0).xyz, cloud.xyz)
