"""Descriptor comparison: circular shift search and row-wise cosine check."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.spatial.distance import cdist

# The halves of a float32-rounded descriptor may differ by one float32 ulp,
# which is at most this share of the descriptor's largest magnitude.
HALF_PERIOD_RTOL = float(np.finfo(np.float32).eps)


@dataclass
class MatchScore:
    d_l1: float
    best_shift: int


def circular_shift(desc: np.ndarray, k: int) -> np.ndarray:
    """Shift columns right by k: output column j = input column (j - k) mod width."""
    return np.roll(np.asarray(desc), k, axis=1)


def descriptor_half(desc: np.ndarray) -> np.ndarray:
    """A copy of the first width/2 columns of a finite 2-D descriptor that
    repeats after half its width, as the polar unrolling of a real image's
    centrosymmetric spectrum does.  ValueError for a non-finite value, an odd
    width, or halves that differ by more than ``HALF_PERIOD_RTOL`` times the
    largest magnitude."""
    desc = np.asarray(desc, dtype=np.float64)
    if not np.isfinite(desc).all():
        raise ValueError("descriptor has a non-finite value")
    width = desc.shape[1]
    if width % 2:
        raise ValueError(
            f"descriptor width {width} is odd, so it cannot repeat after half its width"
        )
    half = width // 2
    gap = np.abs(desc[:, :half] - desc[:, half:]).max()
    if gap > HALF_PERIOD_RTOL * np.abs(desc).max():
        raise ValueError(
            f"descriptor does not repeat after half its width: its halves differ by up to {gap:.3g}"
        )
    return desc[:, :half].copy()


def shift_l1_table(query: np.ndarray, halves: np.ndarray) -> np.ndarray:
    """Shift-searched mean L1 distances of a query against a stack of stored
    descriptor halves.

    ``halves`` has shape (n, rows, width/2) and ``query`` (rows, width);
    entry [i, k] of the returned (n, width/2) table is the per-element mean
    |shift(query, k)[:, :width/2] - halves[i]|.  The table is one cityblock
    ``cdist`` of the halves against the shifted queries' first halves, so it
    costs the same whatever the input, and equal input pairs give equal
    entries.  Inputs must be finite.
    """
    query = np.asarray(query, dtype=np.float64)
    halves = np.asarray(halves, dtype=np.float64)
    n, rows, half = halves.shape
    if query.shape != (rows, 2 * half):
        raise ValueError(f"descriptor shapes differ: {query.shape} vs halves of {halves.shape[1:]}")
    if not (np.isfinite(query).all() and np.isfinite(halves).all()):
        raise ValueError("descriptor has a non-finite value")
    size = rows * half
    doubled = np.concatenate([query, query], axis=1)
    # window m is doubled[:, m : m + half], and shift(query, k) starts at window 2 * half - k
    windows = sliding_window_view(doubled, half, axis=1).transpose(1, 0, 2)
    shifted = windows[2 * half - np.arange(half)].reshape(half, size)
    return cdist(halves.reshape(n, size), shifted, "cityblock") / size


def best_shift_l1(query: np.ndarray, candidate: np.ndarray) -> MatchScore:
    """Minimize the per-element mean |shift(query, k) - candidate| over k.

    Equivalently the candidate is shifted by -k; so best_shift is the amount
    the candidate's columns lead the query's.  The candidate must repeat
    after half its width (``descriptor_half``), as a spectrum descriptor
    does, so only shifts in [0, width/2) are searched and only the first
    width/2 columns are compared: d_l1 is the smallest entry of
    ``shift_l1_table``, the same number ``KeyframeIndex.match`` reports for
    the pair, and differs from the full-width mean by at most the query's
    own half-period deviation.  Ties go to the smallest shift.
    """
    row = shift_l1_table(query, descriptor_half(candidate)[None])[0]
    k = int(np.argmin(row))
    return MatchScore(float(row[k]), k)


def row_cosine(query: np.ndarray, candidate_shifted: np.ndarray) -> float:
    """1 - mean over rows of cosine similarity; a zero-norm row contributes 0."""
    query = np.asarray(query, dtype=np.float64)
    candidate_shifted = np.asarray(candidate_shifted, dtype=np.float64)
    if query.shape != candidate_shifted.shape:
        raise ValueError("descriptor shapes differ")
    nq = np.linalg.norm(query, axis=1)
    nc = np.linalg.norm(candidate_shifted, axis=1)
    dots = (query * candidate_shifted).sum(axis=1)
    ok = (nq > 0) & (nc > 0)
    sims = np.zeros(query.shape[0])
    sims[ok] = dots[ok] / (nq[ok] * nc[ok])
    return float(1.0 - sims.mean())
