"""Point cloud container, file loaders, and preprocessing filters."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import Config

# Sensor-frame height band in meters; returns outside it are spurious
# (below-ground reflections or airborne noise) and are discarded before
# any other processing.
Z_MIN = -3.0
Z_MAX = 30.0

# A grid cell counts as ground-bearing only when at least this many points
# sit within the margin band above its minimum.  Sparser bottoms belong to
# vertical structure and must survive repeated filtering unchanged.
_GROUND_SUPPORT = 3


class FormatError(Exception):
    """Input bytes or text do not match the documented file layout."""


@dataclass
class PointCloud:
    """3D points in the sensor frame, meters. Point order carries no meaning.
    A cloud holds no frame id; ``Dataset.scans`` maps frame ids to scan files.

    Clouds are treated as immutable: filters may return a cloud whose arrays
    are shared with (or views of) their input's, so write to a cloud's
    arrays only when you made them.
    """

    xyz: np.ndarray
    intensity: np.ndarray | None = None
    dropped: int = 0  # non-finite records discarded by a loader

    def __post_init__(self):
        self.xyz = np.asarray(self.xyz, dtype=np.float64).reshape(-1, 3)
        if self.intensity is not None:
            self.intensity = np.asarray(self.intensity, dtype=np.float64).reshape(-1)
            if self.intensity.shape[0] != self.xyz.shape[0]:
                raise ValueError("intensity length does not match point count")

    def __len__(self) -> int:
        return self.xyz.shape[0]

    def select(self, mask) -> "PointCloud":
        """Subset by boolean mask or index array, keeping intensity aligned.

        A boolean mask that keeps every point returns a cloud sharing this
        cloud's arrays.
        """
        idx = np.asarray(mask)
        if idx.dtype == bool:
            if idx.shape != (len(self),):
                raise IndexError(f"mask of shape {idx.shape} for {len(self)} points")
            if idx.all():
                return PointCloud(self.xyz, self.intensity, self.dropped)
            idx = np.flatnonzero(idx)
        inten = None if self.intensity is None else self.intensity.take(idx)
        return PointCloud(self.xyz.take(idx, axis=0), inten, self.dropped)


def empty_cloud() -> PointCloud:
    return PointCloud(np.empty((0, 3)))


def load_kitti_bin(path) -> PointCloud:
    """Read a KITTI velodyne scan: little-endian float32 (x, y, z, intensity) records.

    Non-finite records are dropped and counted in ``cloud.dropped``.  A file
    whose size is not a multiple of 16 bytes is rejected.  Its name is not read.
    """
    raw = Path(path).read_bytes()
    if len(raw) % 16 != 0:
        offset = len(raw) - (len(raw) % 16)
        raise FormatError(f"{path}: truncated 16-byte record at byte offset {offset}")
    if not raw:
        return empty_cloud()
    rec = np.frombuffer(raw, dtype="<f4").reshape(-1, 4)
    finite = np.isfinite(rec)
    dropped = 0
    if not finite.all():
        # casting only finite records keeps NaN payloads out of the cast
        keep = np.flatnonzero(finite.all(axis=1))
        dropped = len(rec) - len(keep)
        rec = rec.take(keep, axis=0)
    arr = rec.astype(np.float64)
    return PointCloud(arr[:, :3], arr[:, 3], dropped)


def read_text_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; bytes that are not UTF-8 are a FormatError."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as err:
        line = raw.count(b"\n", 0, err.start) + 1
        raise FormatError(f"{path}:{line}: not UTF-8 text") from None


def parse_floats(fields, where: str) -> list[float]:
    """Each field as a float; one that is not a number is a FormatError at ``where``."""
    try:
        return [float(f) for f in fields]
    except ValueError:
        raise FormatError(f"{where}: non-numeric field") from None


def load_ascii_cloud(path) -> PointCloud:
    """Read a whitespace-separated text cloud: ``x y z [intensity]`` per line.

    The file is UTF-8 text.  Blank lines and ``#`` comments are ignored.
    Lines with any other column count are rejected with the offending line
    number.  Non-finite rows are counted in ``cloud.dropped``; the name is not read.
    """
    rows = []
    has_intensity = None
    dropped = 0
    for lineno, line in enumerate(read_text_lines(path), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if len(parts) not in (3, 4):
            raise FormatError(f"{path}: line {lineno}: expected 3 or 4 columns, got {len(parts)}")
        vals = parse_floats(parts, f"{path}: line {lineno}")
        if has_intensity is None:
            has_intensity = len(vals) == 4
        elif has_intensity != (len(vals) == 4):
            raise FormatError(f"{path}: line {lineno}: inconsistent column count")
        if not all(np.isfinite(vals)):
            dropped += 1
            continue
        rows.append(vals)
    if not rows:
        return PointCloud(np.empty((0, 3)), None, dropped)
    arr = np.asarray(rows, dtype=np.float64)
    inten = arr[:, 3] if has_intensity else None
    return PointCloud(arr[:, :3], inten, dropped)


def save_ascii_cloud(cloud: PointCloud, path) -> None:
    """Write a cloud in the text format accepted by :func:`load_ascii_cloud`."""
    cols = [cloud.xyz]
    if cloud.intensity is not None:
        cols.append(cloud.intensity.reshape(-1, 1))
    np.savetxt(path, np.hstack(cols), fmt="%.6f")


def crop_window(cloud: PointCloud, window_m: float) -> PointCloud:
    """Keep points with |x| and |y| within half the window side, boundary inclusive."""
    if window_m <= 0:
        raise ValueError("window_m must be positive")
    half = window_m / 2.0
    x, y = cloud.xyz[:, 0], cloud.xyz[:, 1]
    return cloud.select((np.abs(x) <= half) & (np.abs(y) <= half))


def clip_height_band(cloud: PointCloud) -> PointCloud:
    """Discard outlier returns below Z_MIN or above Z_MAX."""
    z = cloud.xyz[:, 2]
    return cloud.select((z >= Z_MIN) & (z <= Z_MAX))


def grid_cells(x: np.ndarray, y: np.ndarray, cell_m: float) -> tuple[np.ndarray, int, int]:
    """The x-y floor grid of ``cell_m`` cells anchored at the points' minimum
    x and y: each point's flat cell id ``row * cols + col`` (row from x,
    column from y), with the grid's ``rows`` and ``cols``.  Points must be
    non-empty."""
    row = np.floor((x - x.min()) / cell_m).astype(np.int64)
    col = np.floor((y - y.min()) / cell_m).astype(np.int64)
    rows, cols = int(row.max()) + 1, int(col.max()) + 1
    return row * cols + col, rows, cols


def _neighbor_median(grid: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Median of the finite 8-neighbors of each flat cell index; NaN when none is.

    Only the listed cells are reduced, and no NaN-skipping reduction runs, so
    no all-NaN warning can arise.  An even count averages the two middle
    values, as ``np.nanmedian`` does.
    """
    nr, nc = grid.shape
    pad = np.full((nr + 2, nc + 2), np.nan)
    pad[1:-1, 1:-1] = grid
    r, c = np.divmod(cells, nc)
    near = np.stack(
        [
            pad[r + 1 + dr, c + 1 + dc]
            for dr in (-1, 0, 1)
            for dc in (-1, 0, 1)
            if (dr, dc) != (0, 0)
        ],
        axis=1,
    )
    near.sort(axis=1)  # NaN sorts last
    k = np.isfinite(near).sum(axis=1)
    rows = np.arange(len(cells))
    # with no finite neighbor both picks are NaN
    return (near[rows, (k - 1) // 2] + near[rows, k // 2]) / 2.0


def remove_ground(
    cloud: PointCloud,
    cell_m: float = Config.ground_cell_m,
    z_margin: float = Config.ground_margin_m,
) -> PointCloud:
    """Drop ground returns using per-cell minimum heights.

    The x-y plane is gridded into ``cell_m`` cells.  A cell's bottom band
    (points within ``z_margin`` of the cell minimum) is peeled off when it is
    flat enough to be a surface (at least three points) and detached from the
    structure above it (no point within the next ``z_margin``); peeling
    repeats while the new bottom band still qualifies.  The stop condition of
    that loop is exactly the entry condition of a fresh application, so the
    filter is idempotent.  Vertically continuous structure never qualifies
    and is left whole.  Cells with fewer points than that three-point support
    can never be peeled on their own; they borrow the median pre-peel floor
    height of peeled 8-neighbors, and without such a donor they are left
    untouched.  Outlier returns outside [Z_MIN, Z_MAX] are discarded first.

    The first peel pass visits every point.  Each later pass visits only the
    points left in the cells the pass before peeled: any other cell keeps its
    points, so its verdict cannot change.  The passes read contiguous copies
    of the x, y and z columns, and the result is gathered from them.
    """
    if cell_m <= 0:
        raise ValueError("cell_m must be positive")
    if z_margin <= 0:
        raise ValueError("z_margin must be positive")
    sub = clip_height_band(cloud)
    if len(sub) == 0:
        return sub
    # a loaded scan's xyz is a strided view of its (n, 4) records
    x, y, z = sub.xyz.T.copy()
    cid, nr, nc = grid_cells(x, y, cell_m)
    ncell = nr * nc

    floor = np.full(ncell, np.nan)
    ground = np.zeros(len(sub), dtype=bool)
    # the points a pass visits: positions, cells, heights
    pts, lc, lz = np.arange(len(sub)), cid, z
    while True:
        zmin = np.full(ncell, np.inf)
        np.minimum.at(zmin, lc, lz)
        bottom = zmin[lc]
        band = lz < bottom + z_margin
        gap = ~band & (lz < bottom + 2.0 * z_margin)
        support = np.bincount(lc[band], minlength=ncell)
        blocked = np.bincount(lc[gap], minlength=ncell)
        # a cell's support counts some of its points, so it has at least that many
        peel = (support >= _GROUND_SUPPORT) & (blocked == 0)
        if not peel.any():
            break
        first = peel & np.isnan(floor)
        floor[first] = zmin[first]
        hit = peel[lc]
        ground[pts[band & hit]] = True
        rest = np.flatnonzero(hit & ~band)  # the next pass revisits only peeled cells
        pts, lc, lz = pts[rest], lc[rest], lz[rest]

    total = np.bincount(cid, minlength=ncell)
    sparse = (total > 0) & (total < _GROUND_SUPPORT)
    if sparse.any() and np.isfinite(floor).any():
        donor = np.full(ncell, np.nan)
        cells = np.flatnonzero(sparse)
        donor[cells] = _neighbor_median(floor.reshape(nr, nc), cells)
        m = np.flatnonzero(np.isfinite(donor)[cid])
        ground[m] |= z[m] < donor[cid[m]] + z_margin

    keep = np.flatnonzero(~ground)
    xyz = np.column_stack((x.take(keep), y.take(keep), z.take(keep)))
    inten = None if sub.intensity is None else sub.intensity.take(keep)
    return PointCloud(xyz, inten, sub.dropped)
