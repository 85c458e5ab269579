"""BEV projection: binning rule, max-height semantics, PGM export."""

import math

import numpy as np
import pytest

from fresco.bev import HEIGHT_OFFSET, _bin_indices, make_bev, write_pgm
from fresco.cloud import Z_MAX, Z_MIN, PointCloud


def bin_index(x: float, y: float, window_m: float, grid_size: int) -> tuple[int, int]:
    """The binning rule for one in-window point, kept as the oracle: row from
    x, column from y, rounded half away from zero and clamped to the grid, so
    a point on the window's upper edge lands in the last row or column."""
    half = window_m / 2.0
    assert abs(x) <= half and abs(y) <= half, "the rule covers in-window points"
    width = window_m / grid_size

    def cell(coord):
        v = (coord + half) / width
        return int(min(max(math.copysign(math.floor(abs(v) + 0.5), v), 0), grid_size - 1))

    return cell(x), cell(y)


def _shipped(x, y, window_m, grid_size):
    r, c = _bin_indices(x, y, window_m, grid_size)
    return int(r), int(c)


def test_bin_index_center():
    assert bin_index(0.0, 0.0, 80.0, 80) == _shipped(0.0, 0.0, 80.0, 80) == (40, 40)


def test_bin_index_corners():
    assert bin_index(-40.0, -40.0, 80.0, 80) == _shipped(-40.0, -40.0, 80.0, 80) == (0, 0)
    # exact upper edge rounds to S and is clamped back in
    assert bin_index(40.0, 40.0, 80.0, 80) == _shipped(40.0, 40.0, 80.0, 80) == (79, 79)


@pytest.mark.parametrize("grid", [8, 80, 128])
def test_bin_indices_equal_the_rule_on_in_window_points(grid):
    rng = np.random.default_rng(13)
    edges = np.array([-40.0, 40.0, np.nextafter(-40.0, 0.0), np.nextafter(40.0, 0.0), 0.0])
    x = np.concatenate([rng.uniform(-40.0, 40.0, 500), edges, np.repeat(edges, 5)])
    y = np.concatenate([rng.uniform(-40.0, 40.0, 500), edges, np.tile(edges, 5)])
    rows, cols = _bin_indices(x, y, 80.0, grid)
    want = [bin_index(a, b, 80.0, grid) for a, b in zip(x, y)]
    assert list(zip(rows.tolist(), cols.tolist())) == want


def test_empty_cloud_gives_zero_image():
    img = make_bev(PointCloud(xyz=np.zeros((0, 3))), 80.0, 128)
    assert img.shape == (128, 128)
    assert not img.any()


def test_max_rule_with_height_offset():
    xyz = np.array([[10.0, -5.0, 2.0], [10.0, -5.0, 5.0]])
    img = make_bev(PointCloud(xyz=xyz), 80.0, 128)
    i, j = bin_index(10.0, -5.0, 80.0, 128)
    assert img[i, j] == 5.0 + HEIGHT_OFFSET == 8.0
    assert np.count_nonzero(img) == 1


def test_against_brute_force_rebinning():
    rng = np.random.default_rng(8)
    xyz = np.column_stack(
        [rng.uniform(-39, 39, 500), rng.uniform(-39, 39, 500), rng.uniform(-2, 20, 500)]
    )
    # independent oracle: accumulate the max per bin with plain dict logic
    want = np.zeros((128, 128))
    for x, y, z in xyz:
        i, j = bin_index(x, y, 80.0, 128)
        want[i, j] = max(want[i, j], z + HEIGHT_OFFSET)
    img = make_bev(PointCloud(xyz=xyz), 80.0, 128)
    np.testing.assert_array_equal(img, want)


def test_point_order_does_not_matter():
    rng = np.random.default_rng(9)
    xyz = rng.uniform(-30, 30, (400, 3))
    a = make_bev(PointCloud(xyz=xyz), 80.0, 64)
    b = make_bev(PointCloud(xyz=xyz[rng.permutation(400)]), 80.0, 64)
    np.testing.assert_array_equal(a, b)


def test_adding_points_never_lowers_bins():
    rng = np.random.default_rng(10)
    xyz = rng.uniform(-30, 30, (300, 3))
    base = make_bev(PointCloud(xyz=xyz), 80.0, 64)
    more = make_bev(PointCloud(xyz=np.vstack([xyz, rng.uniform(-30, 30, (100, 3))])), 80.0, 64)
    assert (more >= base).all()


def test_one_bin_translation_shifts_rows():
    rng = np.random.default_rng(11)
    # keep a margin so nothing falls off the edge when shifted
    xyz = np.column_stack(
        [rng.uniform(-30, 30, 300), rng.uniform(-30, 30, 300), rng.uniform(0, 10, 300)]
    )
    step = 80.0 / 128  # one bin width
    a = make_bev(PointCloud(xyz=xyz), 80.0, 128)
    moved = xyz.copy()
    moved[:, 0] += step
    b = make_bev(PointCloud(xyz=moved), 80.0, 128)
    np.testing.assert_array_equal(b[1:], a[:-1])


def test_points_outside_window_are_ignored():
    xyz = np.array(
        [
            [100.0, 0.0, 5.0],
            [0.0, 0.0, 1.0],
            [5.0, 5.0, Z_MIN - 0.01],  # below the height band
            [-5.0, 5.0, Z_MAX + 0.01],  # above it
            [-5.0, -5.0, Z_MAX],  # on its inclusive top edge
        ]
    )
    img = make_bev(PointCloud(xyz=xyz), 80.0, 64)
    assert np.count_nonzero(img) == 2
    assert img[bin_index(0.0, 0.0, 80.0, 64)] == 1.0 + HEIGHT_OFFSET
    assert img[bin_index(-5.0, -5.0, 80.0, 64)] == Z_MAX + HEIGHT_OFFSET


def test_grid_size_floor():
    with pytest.raises(ValueError):
        make_bev(PointCloud(xyz=np.zeros((0, 3))), 80.0, 4)


def test_pgm_export_millimeter_scale(tmp_path):
    img = make_bev(PointCloud(xyz=np.array([[0.0, 0.0, 1.234]])), 80.0, 16)
    out = tmp_path / "bev.pgm"
    write_pgm(img, out)
    raw = out.read_bytes()
    header, _, rest = raw.partition(b"\n")
    assert header == b"P5"
    dims, _, rest = rest.partition(b"\n")
    assert dims == b"16 16"
    maxval, _, payload = rest.partition(b"\n")
    assert maxval == b"65535"
    grid = np.frombuffer(payload, dtype=">u2").reshape(16, 16)
    i, j = bin_index(0.0, 0.0, 80.0, 16)
    assert grid[i, j] == round((1.234 + HEIGHT_OFFSET) * 1000)
    assert grid.sum() == grid[i, j]


@pytest.mark.parametrize("grid", [8, 80, 128])
def test_window_edges_and_half_bin_ties_round_half_away(grid):
    half = 40.0
    width = 2.0 * half / grid  # exact in binary for these grids
    ties = (np.arange(grid) + 0.5) * width - half
    assert np.all((ties + half) / width % 1.0 == 0.5)  # each lands exactly on a tie
    coords = np.concatenate([[-half, half], ties])
    gx, gy = np.meshgrid(coords, coords[::-1])
    rng = np.random.default_rng(12)
    xyz = np.column_stack([gx.ravel(), gy.ravel(), rng.uniform(0.0, 10.0, gx.size)])

    want = np.zeros((grid, grid))
    for x, y, z in xyz:
        i, j = bin_index(x, y, 2.0 * half, grid)
        want[i, j] = max(want[i, j], z + HEIGHT_OFFSET)
    np.testing.assert_array_equal(make_bev(PointCloud(xyz=xyz), 2.0 * half, grid), want)
    assert bin_index(ties[2], 0.0, 2.0 * half, grid)[0] == 3  # ties to even would give 2
