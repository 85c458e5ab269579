"""Keyframe descriptor index: compact keys, exact nearest-key retrieval,
and the accept/reject match decision."""

from __future__ import annotations

import operator
import struct
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from .cloud import FormatError
from .config import Config
from .matching import circular_shift, descriptor_half, row_cosine, shift_l1_table
from .pose import shift_to_rotation

_MAGIC = b"FRIX"
_VERSION = 2
# magic, version, descriptor rows, descriptor columns, entry count
_HEADER = struct.Struct("<4sIIIQ")


class DegenerateDescriptorError(Exception):
    """All-zero descriptor: the frame carries no usable structure."""


def make_key(desc: np.ndarray) -> np.ndarray:
    """Rotation-tolerant retrieval key: per-row means then per-row population
    standard deviations, each normalized by the global descriptor mean.

    Row statistics ignore column order entirely, so the key survives the
    circular shifts a scene rotation induces.  A non-finite descriptor is a
    ValueError, so ``insert`` and ``match`` reject it before storing or
    scoring anything.
    """
    desc = np.asarray(desc, dtype=np.float64)
    if not np.isfinite(desc).all():
        raise ValueError("descriptor has a non-finite value")
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
    """Insertion-ordered store of (id, key, descriptor half): a descriptor
    repeats after half its width, so only its first half is kept.

    Keys live in one float64 block, a row per insertion, that doubles when
    full.  Retrieval is ``properties.linear_scan`` over the eligible keys,
    ties and distances included, in one exact pass.  The most recent
    ``exclusion_horizon`` insertions are never returned, which keeps a
    vehicle from matching the scene it is in.
    """

    def __init__(self, exclusion_horizon: int = Config.exclusion_horizon):
        if exclusion_horizon < 0:
            raise ValueError("exclusion_horizon must be >= 0")
        self.exclusion_horizon = exclusion_horizon
        self._ids: list[int] = []
        self._keys = np.empty((0, 0))  # rows past len(self) are unused
        self._halves: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> list[int]:
        return list(self._ids)

    @property
    def eligible_ids(self) -> list[int]:
        """Ids ``retrieve`` may return: every insertion older than the exclusion horizon."""
        return self._ids[: max(0, len(self._ids) - self.exclusion_horizon)]

    def _half(self, frame_id: int) -> np.ndarray:
        pos = bisect_left(self._ids, frame_id)  # ids are strictly increasing
        if pos == len(self._ids) or self._ids[pos] != frame_id:
            raise ValueError(f"frame id {frame_id} is not in the index")
        return self._halves[pos]

    def descriptor(self, frame_id: int) -> np.ndarray:
        """A new full-width array of ``frame_id``'s stored half, tiled twice;
        ValueError if it was never inserted."""
        return np.tile(self._half(frame_id), 2)

    def insert(self, frame_id: int, desc: np.ndarray) -> None:
        """Add a frame; ids must be integers in [0, 2**64) that strictly
        increase, and every descriptor must be finite and have the first
        one's 2-D shape, at least 2 columns wide, and repeat after half its
        width (``matching.descriptor_half``, which keeps its first half; the
        key is taken from the whole).  A rejected frame changes nothing."""
        try:
            frame_id = operator.index(frame_id)
        except TypeError:
            raise ValueError(f"frame id {frame_id!r} is not an integer") from None
        if not 0 <= frame_id < 2**64:
            raise ValueError(f"frame id {frame_id} does not fit in an unsigned 64-bit integer")
        if self._ids and frame_id <= self._ids[-1]:
            raise ValueError(f"frame id {frame_id} not greater than last inserted {self._ids[-1]}")
        desc = np.asarray(desc, dtype=np.float64)
        stored = (len(self._halves[0]), 2 * self._halves[0].shape[1]) if self._halves else None
        if desc.ndim != 2 or desc.shape[1] < 2 or stored not in (None, desc.shape):
            want = stored or "a 2-D shape with at least 2 columns"
            raise ValueError(
                f"descriptor shape {desc.shape} does not fit the index; expected {want}"
            )
        key = make_key(desc)  # degenerate frames are rejected, not stored
        half = descriptor_half(desc)
        n = len(self._ids)
        if n == len(self._keys):  # full: double the block; np.resize keeps its rows
            self._keys = np.resize(self._keys, (2 * n or 1, key.size))
        self._keys[n] = key
        self._ids.append(frame_id)
        self._halves.append(half)

    def retrieve(self, desc: np.ndarray, num_candidates: int) -> list[tuple[int, float]]:
        """Up to ``num_candidates`` (id, key distance) pairs of ``eligible_ids``,
        nearest first, ties to the smaller id.

        One ``cdist`` row, ``properties.linear_scan``'s arithmetic, against every
        eligible key.  Every position no farther than the k-th smallest
        distance stays, in position order, so a stable sort of those ranks
        exactly as a stable sort of them all.
        """
        k = num_candidates
        if k < 1:
            raise ValueError("num_candidates must be >= 1")
        key = make_key(desc)
        n = max(0, len(self._ids) - self.exclusion_horizon)
        if not n:
            return []
        dist = cdist(key[None], self._keys[:n])[0]
        cut = np.partition(dist, k - 1)[k - 1] if k < n else np.inf
        pos = np.flatnonzero(dist <= cut)
        pos = pos[np.argsort(dist[pos], kind="stable")[:k]]
        return [(self._ids[p], d) for p, d in zip(pos.tolist(), dist[pos].tolist())]

    def match(
        self,
        desc: np.ndarray,
        num_candidates: int,
        l1_threshold: float,
        cosine_threshold: float,
    ) -> MatchResult:
        """Score retrieved candidates and decide acceptance.

        All candidates' stored halves are scored in one batched shift search
        (``shift_l1_table``), and ``d_l1`` is that table's smallest entry: the
        mean over the first width/2 columns of the shifted query and the
        stored half.  The candidate and shift minimizing it (ties to the
        earliest in retrieval order, then to the smallest shift) are checked
        once against both thresholds, ``d_r`` on the candidate's full-width
        tiling; a cosine rejection is final (no fallback to the runner-up).
        Scores are reported either way so callers can sweep thresholds
        afterwards.
        """
        desc = np.asarray(desc, dtype=np.float64)
        ids = [fid for fid, _ in self.retrieve(desc, num_candidates)]
        if not ids:
            return MatchResult(None, np.inf, np.inf, 0, 0.0, False)
        halves = np.stack([self._half(fid) for fid in ids])
        table = shift_l1_table(desc, halves)
        best, shift = divmod(int(np.argmin(table)), table.shape[1])  # row-major: ties go first
        d_l1 = float(table[best, shift])
        # shift(desc, k) ~ candidate, so the candidate aligned to desc is shift(candidate, -k)
        d_r = row_cosine(desc, circular_shift(np.tile(halves[best], 2), -shift))
        accepted = d_l1 <= l1_threshold and d_r <= cosine_threshold
        rotation = shift_to_rotation(shift, desc.shape[1])
        return MatchResult(ids[best], d_l1, d_r, shift, rotation, accepted)

    def save(self, path) -> None:
        """Write the ``_HEADER``, every frame id as u64, then every descriptor as
        row-major float32 (each stored half, then a copy of it), all
        little-endian.  Keys are derived, not stored."""
        rows, half = self._halves[0].shape if self._halves else (0, 0)
        header = _HEADER.pack(_MAGIC, _VERSION, rows, 2 * half, len(self._ids))
        ids = np.asarray(self._ids, dtype="<u8").tobytes()
        descs = np.tile(np.asarray(self._halves, dtype="<f4"), 2).tobytes()
        Path(path).write_bytes(header + ids + descs)

    @classmethod
    def load(cls, path, exclusion_horizon: int = Config.exclusion_horizon) -> "KeyframeIndex":
        """Read a file written by ``save``; the result is exactly the index
        built by inserting the stored float32 descriptors in file order; an
        entry ``insert`` rejects is a FormatError naming its frame."""
        raw = Path(path).read_bytes()
        if len(raw) < _HEADER.size or raw[:4] != _MAGIC:
            raise FormatError(f"{path}: not an index file (bad magic)")
        _, version, rows, cols, count = _HEADER.unpack_from(raw)
        if version != _VERSION:
            raise FormatError(
                f"{path}: index version {version} is not readable (expected {_VERSION}); "
                "rebuild it with `fresco build`"
            )
        expect = _HEADER.size + count * (8 + 4 * rows * cols)
        if len(raw) != expect:
            raise FormatError(
                f"{path}: {len(raw)} bytes, expected {expect} for {count} {rows}x{cols} entries"
            )
        idx = cls(exclusion_horizon=exclusion_horizon)
        if not count:  # rows x cols of an empty file need not fit an array
            return idx
        start = _HEADER.size
        ids = np.frombuffer(raw, dtype="<u8", count=count, offset=start).tolist()
        descs = np.frombuffer(raw, dtype="<f4", offset=start + 8 * count).reshape(count, rows, cols)
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
