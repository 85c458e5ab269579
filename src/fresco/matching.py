"""Descriptor comparison: circular shift search and row-wise cosine check."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.spatial.distance import cdist

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal
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


def _shifted_halves(query: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """shift(query, k)[:, :width/2] for each k in ``shifts`` (each in [0,
    width/2)), stacked as a C-contiguous (len(shifts), rows, width/2) array."""
    width = query.shape[1]
    doubled = np.concatenate([query, query], axis=1)
    # window m is doubled[:, m : m + width/2], and shift(query, k) starts at window width - k
    windows = sliding_window_view(doubled, width // 2, axis=1).transpose(1, 0, 2)
    return windows[width - np.asarray(shifts)]


def shift_l1_table(query: np.ndarray, halves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Screened shift-searched mean L1 distances of a query against a stack
    of stored descriptor halves, each with a rounding bound.

    ``halves`` has shape (n, rows, width/2) and ``query`` (rows, width);
    entry [i, k] of the returned (n, width/2) ``table`` estimates the
    per-element mean |shift(query, k)[:, :width/2] - halves[i]|, and lies
    within ``slack[i, k] = screen_slack(table, rows * width/2)`` of the
    exact mean ``confirm_min`` computes.  The table is one cityblock
    ``cdist`` of the halves against the shifted queries' first halves, so it
    costs the same whatever the input.  Inputs must be finite.
    """
    query = np.asarray(query, dtype=np.float64)
    halves = np.asarray(halves, dtype=np.float64)
    n, rows, half = halves.shape
    if query.shape != (rows, 2 * half):
        raise ValueError(f"descriptor shapes differ: {query.shape} vs halves of {halves.shape[1:]}")
    if not (np.isfinite(query).all() and np.isfinite(halves).all()):
        raise ValueError("descriptor has a non-finite value")
    size = rows * half
    shifted = _shifted_halves(query, np.arange(half)).reshape(half, size)
    table = cdist(halves.reshape(n, size), shifted, "cityblock") / size
    return table, screen_slack(table, size)


def screen_slack(table: np.ndarray, size: int) -> np.ndarray:
    """Rounding bound on |screened mean - exact mean| for means over
    ``size`` non-negative terms.

    Both are a sum of ``size`` rounded absolute differences, in some order,
    then one division, so each lies within about size·eps/2 relative (plus
    half a subnormal) of the true mean.  The bound doubles their sum:
    2·(size + 2)·eps relative to ``table``, plus 4 subnormals.
    """
    return 2 * (size + 2) * _EPS * table + 4 * _TINY


def confirm_min(
    query: np.ndarray, halves: np.ndarray, table: np.ndarray, slack: np.ndarray
) -> tuple[int, int, float]:
    """(candidate, shift, d_l1) with the smallest exact mean L1 distance.

    ``table, slack`` is ``shift_l1_table(query, halves)``: each exact mean
    lies within its entry's slack of its table entry.  Only the entries
    whose lower bound reaches the smallest upper bound can be the minimum,
    and only those are recomputed, with the exact arithmetic of a one-shift
    search: the first width/2 columns of shift(query, k) minus the stored
    half, absolute values laid out row-major, numpy's pairwise sum, divided
    by rows · width/2.  Ties go to the earliest candidate, then the smallest
    shift.
    """
    query = np.asarray(query, dtype=np.float64)
    halves = np.asarray(halves, dtype=np.float64)
    _, rows, half = halves.shape
    keep = np.flatnonzero(table - slack <= (table + slack).min())
    ids, shifts = np.divmod(keep, half)  # ascending, so argmin breaks ties
    diff = _shifted_halves(query, shifts) - halves[ids]
    exact = np.abs(diff).reshape(len(keep), rows * half).sum(axis=1) / (rows * half)
    best = int(np.argmin(exact))
    return int(ids[best]), int(shifts[best]), float(exact[best])


def best_shift_l1(query: np.ndarray, candidate: np.ndarray) -> MatchScore:
    """Minimize the per-element mean |shift(query, k) - candidate| over k.

    Equivalently the candidate is shifted by -k; so best_shift is the amount
    the candidate's columns lead the query's.  The candidate must repeat
    after half its width (``descriptor_half``), as a spectrum descriptor
    does, so only shifts in [0, width/2) are searched and only the first
    width/2 columns are compared: d_l1 is the exact half-width mean that
    ``KeyframeIndex.match`` reports, which differs from the full-width mean
    by at most the query's own half-period deviation.  Ties go to the
    smallest shift.
    """
    halves = descriptor_half(candidate)[None]
    _, k, d_l1 = confirm_min(query, halves, *shift_l1_table(query, halves))
    return MatchScore(d_l1, k)


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
