"""Keyframe descriptor index: compact keys, exact nearest-key retrieval,
and the accept/reject match decision."""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .cloud import FormatError
from .matching import circular_shift, row_cosine, shift_l1_table
from .pose import shift_to_rotation

_MAGIC = b"FRIX"
_VERSION = 2
_REBUILD_EVERY = 64  # insertions between k-d tree rebuilds


class DegenerateDescriptorError(Exception):
    """All-zero descriptor: the frame carries no usable structure."""


def make_key(desc: np.ndarray) -> np.ndarray:
    """Rotation-tolerant retrieval key: per-row means then per-row population
    standard deviations, each normalized by the global descriptor mean.

    Row statistics ignore column order entirely, so the key survives the
    circular shifts a scene rotation induces.
    """
    desc = np.asarray(desc, dtype=np.float64)
    g = desc.mean() if desc.size else 0.0
    if not g > 0.0:
        raise DegenerateDescriptorError("descriptor global mean is not positive")
    return np.concatenate([desc.mean(axis=1), desc.std(axis=1)]) / g


@dataclass
class MatchResult:
    candidate_id: int | None
    d_l1: float
    d_r: float
    best_shift: int
    rotation_deg: float
    accepted: bool


class KeyframeIndex:
    """Insertion-ordered store of (id, key, descriptor).

    Retrieval is exact nearest-neighbor over keys: a k-d tree is rebuilt
    every 64 insertions and the unindexed tail is scanned linearly, so
    answers never depend on rebuild timing.  The most recent
    ``exclusion_horizon`` insertions are never returned, which keeps a
    vehicle from matching the scene it is still inside.
    """

    def __init__(self, exclusion_horizon: int = 30):
        if exclusion_horizon < 0:
            raise ValueError("exclusion_horizon must be >= 0")
        self.exclusion_horizon = exclusion_horizon
        self._ids: list[int] = []
        self._keys: list[np.ndarray] = []
        self._descs: list[np.ndarray] = []
        self._tree: cKDTree | None = None
        self._tree_size = 0

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> list[int]:
        return list(self._ids)

    @property
    def eligible_ids(self) -> list[int]:
        """Ids ``retrieve`` may return: every insertion older than the exclusion horizon."""
        return self._ids[: max(0, len(self._ids) - self.exclusion_horizon)]

    def descriptor(self, frame_id: int) -> np.ndarray:
        """Stored descriptor of ``frame_id``; ValueError if it was never inserted."""
        pos = bisect_left(self._ids, frame_id)  # ids are strictly increasing
        if pos == len(self._ids) or self._ids[pos] != frame_id:
            raise ValueError(f"frame id {frame_id} is not in the index")
        return self._descs[pos]

    def _check_next_id(self, frame_id: int) -> None:
        if self._ids and frame_id <= self._ids[-1]:
            raise ValueError(
                f"frame id {frame_id} not greater than last inserted {self._ids[-1]}"
            )

    def insert(self, frame_id: int, desc: np.ndarray) -> None:
        """Add a frame; ids must be new and strictly increasing, and every
        descriptor must have the first one's 2-D shape, at least 2 columns wide."""
        self._check_next_id(frame_id)
        desc = np.asarray(desc, dtype=np.float64)
        stored = self._descs[0].shape if self._descs else None
        if desc.ndim != 2 or desc.shape[1] < 2 or stored not in (None, desc.shape):
            want = stored or "a 2-D shape with at least 2 columns"
            raise ValueError(f"descriptor shape {desc.shape} does not fit the index; expected {want}")
        key = make_key(desc)  # degenerate frames are rejected, not stored
        self._ids.append(int(frame_id))
        self._keys.append(key)
        self._descs.append(desc)
        if len(self._ids) % _REBUILD_EVERY == 0:
            self._tree = cKDTree(np.vstack(self._keys))
            self._tree_size = len(self._keys)

    def retrieve(self, desc: np.ndarray, num_candidates: int) -> list[tuple[int, float]]:
        """Up to ``num_candidates`` eligible (id, key distance) pairs, nearest first.

        Only ``eligible_ids`` are returned.  Ties in distance break toward
        the smaller id so results are reproducible.
        """
        if num_candidates < 1:
            raise ValueError("num_candidates must be >= 1")
        key = make_key(desc)
        eligible = len(self.eligible_ids)
        if not eligible:
            return []
        found: list[tuple[float, int]] = []
        tree_n = min(self._tree_size, eligible)
        if self._tree is not None and tree_n > 0:
            # over-fetch: at most exclusion_horizon tree entries are ineligible
            k = min(self._tree_size, num_candidates + self.exclusion_horizon)
            dist, pos = self._tree.query(key, k=k)
            for d, p in zip(np.atleast_1d(dist), np.atleast_1d(pos)):
                if p < tree_n:
                    found.append((float(d), self._ids[int(p)]))
        for p in range(self._tree_size, eligible):
            d = float(np.linalg.norm(self._keys[p] - key))
            found.append((d, self._ids[p]))
        found.sort()
        return [(fid, d) for d, fid in found[:num_candidates]]

    def match(
        self,
        desc: np.ndarray,
        num_candidates: int,
        l1_threshold: float,
        cosine_threshold: float,
    ) -> MatchResult:
        """Score retrieved candidates and decide acceptance.

        All candidates are scored in one batched shift search.  The one
        minimizing the shift-searched L1 distance (ties to the earliest in
        retrieval order, then to the smallest shift) is checked once against
        both thresholds; a cosine rejection is final (no fallback to the
        runner-up).  Scores are reported either way so callers can sweep
        thresholds afterwards.
        """
        desc = np.asarray(desc, dtype=np.float64)
        candidates = self.retrieve(desc, num_candidates)
        if not candidates:
            return MatchResult(None, np.inf, np.inf, 0, 0.0, False)
        ids = [fid for fid, _ in candidates]
        table = shift_l1_table(desc, np.stack([self.descriptor(fid) for fid in ids]))
        shifts = table.argmin(axis=1)
        dists = table.min(axis=1)
        best = int(np.argmin(dists))
        best_id, d_l1, shift = ids[best], float(dists[best]), int(shifts[best])
        # shift(desc, k) ~ candidate, so the candidate aligned to desc is shift(candidate, -k)
        d_r = row_cosine(desc, circular_shift(self.descriptor(best_id), -shift))
        accepted = d_l1 <= l1_threshold and d_r <= cosine_threshold
        return MatchResult(
            best_id, d_l1, d_r, shift, shift_to_rotation(shift, desc.shape[1]), accepted
        )

    def save(self, path) -> None:
        """Write the header, every frame id as u64, then every descriptor as
        row-major float32, all little-endian.  Keys are derived, not stored."""
        rows, cols = self._descs[0].shape if self._descs else (0, 0)
        header = _MAGIC + struct.pack("<IIIQ", _VERSION, rows, cols, len(self._ids))
        ids = np.asarray(self._ids, dtype="<u8").tobytes()
        descs = np.asarray(self._descs, dtype="<f4").tobytes()
        Path(path).write_bytes(header + ids + descs)

    @classmethod
    def load(cls, path, exclusion_horizon: int = 30) -> "KeyframeIndex":
        """Read a file written by ``save``; the result is exactly the index
        built by inserting the stored float32 descriptors in file order."""
        raw = Path(path).read_bytes()
        if len(raw) < 24 or raw[:4] != _MAGIC:
            raise FormatError(f"{path}: not an index file (bad magic)")
        version, rows, cols, count = struct.unpack("<IIIQ", raw[4:24])
        if version != _VERSION:
            raise FormatError(
                f"{path}: index version {version} is not readable (expected {_VERSION}); "
                "rebuild it with `fresco build`"
            )
        expect = 24 + count * (8 + 4 * rows * cols)
        if len(raw) != expect:
            raise FormatError(
                f"{path}: {len(raw)} bytes, expected {expect} for {count} {rows}x{cols} entries"
            )
        idx = cls(exclusion_horizon=exclusion_horizon)
        if not count:  # rows x cols of an empty file need not fit an array
            return idx
        ids = np.frombuffer(raw, dtype="<u8", count=count, offset=24).tolist()
        descs = np.frombuffer(raw, dtype="<f4", offset=24 + 8 * count).reshape(count, rows, cols)
        finite = np.isfinite(descs).all(axis=(1, 2))
        if not finite.all():
            fid = ids[np.argmin(finite)]
            raise FormatError(f"{path}: frame {fid} has a non-finite descriptor value")
        for fid, desc in zip(ids, descs):
            try:
                idx.insert(fid, desc)
            except (ValueError, DegenerateDescriptorError) as err:
                raise FormatError(f"{path}: frame {fid}: {err}") from None
        return idx
