"""Bird's-eye-view projection: per-bin maximum heights on a square grid."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .cloud import PointCloud, Z_MIN, clip_height_band, crop_window
from .config import Config

# Heights are stored relative to the Z_MIN floor so that an empty bin (0)
# sits below every real return.
HEIGHT_OFFSET = -Z_MIN


def _round_half_away(v: np.ndarray) -> np.ndarray:
    # np.round ties to even; the binning rule rounds halves away from zero.
    return np.sign(v) * np.floor(np.abs(v) + 0.5)


def _bin_indices(x, y, window_m: float, grid_size: int):
    # callers pass in-window points, whose bin coordinates are >= 0, where
    # rounding half away from zero is floor(v + 0.5)
    half = window_m / 2.0
    width = window_m / grid_size
    r = np.floor((np.asarray(x) + half) / width + 0.5).astype(np.int64)
    c = np.floor((np.asarray(y) + half) / width + 0.5).astype(np.int64)
    return np.minimum(r, grid_size - 1), np.minimum(c, grid_size - 1)


def make_bev(
    cloud: PointCloud, window_m: float = Config.window_m, grid_size: int = Config.grid_size
) -> np.ndarray:
    """Project a cloud to a top-down max-height image.

    Returns a (grid_size, grid_size) float array.  Points outside the window
    or the [Z_MIN, Z_MAX] band are ignored.  Each bin holds max(z) - Z_MIN
    over its points, so all entries are >= 0 and 0 means no return fell there.
    """
    kept = clip_height_band(crop_window(cloud, window_m))
    if grid_size < 8:
        raise ValueError("grid_size must be at least 8")
    x, y, z = kept.xyz.T
    data = np.zeros(grid_size * grid_size)
    r, c = _bin_indices(x, y, window_m, grid_size)
    np.maximum.at(data, r * grid_size + c, z + HEIGHT_OFFSET)
    return data.reshape(grid_size, grid_size)


def write_pgm(image: np.ndarray, path) -> None:
    """Debug dump of a height image as a 16-bit PGM, heights scaled to
    millimeters; width and height are read from the image's shape."""
    rows, cols = image.shape
    mm = np.clip(_round_half_away(image * 1000.0), 0, 65535).astype(">u2")
    header = f"P5\n{cols} {rows}\n65535\n".encode("ascii")
    Path(path).write_bytes(header + mm.tobytes())
