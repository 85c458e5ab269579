"""Point-cloud IO, cropping, and ground removal."""

import struct
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fresco import cloud as cloud_mod
from fresco import synth
from fresco.cloud import (
    FormatError,
    PointCloud,
    clip_height_band,
    crop_window,
    empty_cloud,
    grid_cells,
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


def test_grid_cells_anchor_at_the_minimum_and_number_rows_from_x():
    # 2 m cells anchored at (-3, -2); (-1, 0) sits exactly on a row edge and a column edge
    x = np.array([-3.0, -1.0, 0.5, -3.0, -2.9])
    y = np.array([-2.0, 0.0, -2.0, 1.5, 2.5])
    cid, rows, cols = grid_cells(x, y, 2.0)
    # (row, col): (0, 0), (1, 1), (1, 0), (0, 1), (0, 2)
    assert (rows, cols) == (2, 3)
    assert cid.dtype == np.int64
    assert cid.tolist() == [0, 4, 3, 1, 2]


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


def _as_loaded(xyz, inten, strided):
    """A cloud over ``xyz``; ``strided`` builds it from the strided array a
    caller holding (n, 4) records passes, views of the records' columns."""
    if not strided:
        return PointCloud(xyz, inten)
    rec = np.column_stack([xyz, np.zeros(len(xyz)) if inten is None else inten])
    view = rec[:, :3]
    assert len(xyz) < 2 or not (view.flags.c_contiguous or view.flags.f_contiguous)
    return PointCloud(view, None if inten is None else rec[:, 3])


def _cell_heights(kind, rng):
    """Heights of the points one 1 m cell holds."""
    if kind == "layers":  # detached layers 0.7 m apart, each peeled by its own pass
        base = rng.uniform(-2.5, 0.0)
        layers = int(rng.integers(1, 5))
        return np.concatenate([base + 0.7 * k + rng.uniform(0.0, 0.1, rng.integers(3, 7))
                               for k in range(layers)])
    if kind == "sparse":
        return rng.uniform(-2.5, 1.0, rng.integers(1, 3))
    if kind == "column":  # vertically continuous structure, never peeled
        return np.arange(rng.uniform(-2.5, 0.0), 3.0, 0.1)
    if kind == "scatter":  # reaches below Z_MIN and above Z_MAX
        return rng.uniform(-4.0, 31.0, rng.integers(1, 12))
    return np.empty(0)


@st.composite
def _ground_scenes(draw):
    """Cloud, intensity labels or None, and layout flag, on a grid of 1 m cells."""
    side = draw(st.integers(1, 5))
    kinds = st.sampled_from(["empty", "layers", "sparse", "column", "scatter"])
    cells = draw(st.lists(kinds, min_size=side * side, max_size=side * side))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for cell, kind in enumerate(cells):
        z = _cell_heights(kind, rng)
        xy = rng.uniform(0.125, 0.875, (len(z), 2)) + divmod(cell, side)
        # a corner point at a dyadic offset lines the filter's grid up with these cells
        xy[:1] = np.floor(xy[:1]) + 0.125
        parts.append(np.column_stack([xy, z]))
    xyz = np.concatenate(parts)
    inten = np.arange(len(xyz), dtype=float) if draw(st.booleans()) else None
    return xyz, inten, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(_ground_scenes())
def test_remove_ground_equals_the_full_mask_peel_on_generated_scenes(scene):
    cloud = _as_loaded(*scene)
    got, want = remove_ground(cloud), _remove_ground_by_full_masks(cloud)
    np.testing.assert_array_equal(got.xyz, want.xyz)
    if cloud.intensity is None:
        assert got.intensity is None
    else:
        np.testing.assert_array_equal(got.intensity, want.intensity)


@pytest.mark.parametrize("strided", [False, True])
def test_remove_ground_peels_stacked_layers_one_pass_each(strided):
    rng = np.random.default_rng(44)
    xyz = np.empty((0, 3))
    # a cell of three detached layers, and a one-point cell on each side of it
    for (cx, cy), z in [((1, 1), np.repeat([-1.7, -1.0, -0.3], 4) + rng.uniform(0.0, 0.05, 12)),
                        ((0, 1), np.array([-1.6])), ((2, 1), np.array([5.0])),
                        ((1, 0), np.array([-9.0, 40.0]))]:
        xy = np.array([cx, cy]) + rng.uniform(0.125, 0.875, (len(z), 2))
        xyz = np.vstack([xyz, np.column_stack([xy, z])])
    xyz = np.vstack([xyz, [[0.125, 0.125, -2.9]]])  # anchors the grid at 0.125
    cloud = _as_loaded(xyz, np.arange(len(xyz), dtype=float), strided)
    got = remove_ground(cloud)
    want = _remove_ground_by_full_masks(cloud)
    np.testing.assert_array_equal(got.xyz, want.xyz)
    np.testing.assert_array_equal(got.intensity, want.intensity)
    # a pass peels one layer, so three passes took the stack; the out-of-band
    # pair is clipped; the sparse returns below the stack's floor (the anchor
    # and -1.6 m) borrow it and go, the one at 5 m stays
    assert got.intensity.tolist() == [13]


@pytest.mark.parametrize("with_intensity", [True, False])
def test_select_equals_boolean_indexing(with_intensity):
    rng = np.random.default_rng(40)
    xyz = rng.uniform(-5.0, 5.0, (50, 3))
    inten = rng.uniform(0.0, 1.0, 50) if with_intensity else None
    cloud = PointCloud(xyz, inten, dropped=2)
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
        assert got.dropped == 2
    with pytest.raises(IndexError):
        cloud.select(np.ones(49, dtype=bool))
    with pytest.raises(IndexError):
        cloud.select(np.array([3, 50]))


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


def _assert_column_major(cloud, ref_xyz, ref_inten):
    """``cloud`` stores its points column-major, equal to the row-major
    reference, with intensity aligned to them."""
    assert cloud.xyz.shape == ref_xyz.shape
    assert len(cloud) < 2 or (cloud.xyz.flags.f_contiguous and not cloud.xyz.flags.c_contiguous)
    np.testing.assert_array_equal(cloud.xyz, ref_xyz)
    if ref_inten is None:
        assert cloud.intensity is None
    else:
        np.testing.assert_array_equal(cloud.intensity, ref_inten)


def test_every_producer_stores_xyz_column_major(tmp_path):
    rng = np.random.default_rng(45)
    n = 400
    rows = np.column_stack([rng.uniform(-40.0, 40.0, (n, 2)), rng.uniform(-5.0, 35.0, n)])
    label = np.arange(n, dtype=float)  # a point's row in ``rows``
    cloud = PointCloud(rows, label)
    assert not rows.flags.f_contiguous
    _assert_column_major(cloud, rows, label)
    given = np.asfortranarray(rows)
    assert np.shares_memory(PointCloud(given).xyz, given)  # already column-major: not copied

    rec = np.column_stack([rows, label]).astype("<f4")
    (tmp_path / "a.bin").write_bytes(rec.tobytes())
    ref = rec.astype(np.float64)
    _assert_column_major(load_kitti_bin(tmp_path / "a.bin"), ref[:, :3], ref[:, 3])
    bad = rec.copy()
    bad[[5, 17], [2, 0]] = [np.nan, np.inf]
    (tmp_path / "b.bin").write_bytes(bad.tobytes())
    loaded = load_kitti_bin(tmp_path / "b.bin")
    keep = np.setdiff1d(np.arange(n), [5, 17])
    _assert_column_major(loaded, ref[keep, :3], ref[keep, 3])
    assert loaded.dropped == 2
    save_ascii_cloud(cloud, tmp_path / "c.txt")
    text = load_ascii_cloud(tmp_path / "c.txt")
    _assert_column_major(text, np.round(rows, 6), label)

    mask = rng.random(n) < 0.5
    pos = np.array([3, -1, 0, 7, -n, 3])
    _assert_column_major(cloud.select(mask), rows[mask], label[mask])
    _assert_column_major(cloud.select(np.ones(n, dtype=bool)), rows, label)
    _assert_column_major(cloud.select(pos), rows[pos], label[pos])

    for kept in (crop_window(cloud, 50.0), clip_height_band(cloud), remove_ground(cloud)):
        assert 1 < len(kept) < n
        at = kept.intensity.astype(np.int64)
        _assert_column_major(kept, rows[at], label[at])

    scene = synth.generate(synth.SceneSpec(seed=45, pillars=6, walls=2, rings=1))
    assert len(scene) > 1 and scene.xyz.flags.f_contiguous
    moved = synth.perturb(PointCloud(rows, label), tx=1.0, ty=-2.0, yaw_deg=30.0,
                          occlusion=(10.0, 40.0))
    at = moved.intensity.astype(np.int64)
    assert 1 < len(moved) < n
    c, s = np.cos(np.radians(30.0)), np.sin(np.radians(30.0))
    dx, dy = rows[at, 0] - 1.0, rows[at, 1] + 2.0
    want = np.column_stack([c * dx + s * dy, c * dy - s * dx, rows[at, 2]])
    assert moved.xyz.flags.f_contiguous
    np.testing.assert_allclose(moved.xyz, want, rtol=0.0, atol=1e-12)
    assert empty_cloud().xyz.flags.f_contiguous
