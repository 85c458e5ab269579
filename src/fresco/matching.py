"""Descriptor comparison: circular shift search and row-wise cosine check."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.spatial.distance import cdist

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal


@dataclass
class MatchScore:
    d_l1: float
    best_shift: int


def circular_shift(desc: np.ndarray, k: int) -> np.ndarray:
    """Shift columns right by k: output column j = input column (j - k) mod width."""
    return np.roll(np.asarray(desc), k, axis=1)


def shift_l1_table(query: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Screened shift-searched mean L1 distances of a query against a stack of candidates.

    ``candidates`` has shape (n, rows, width); entry [i, k] of the returned
    (n, width/2) table is the per-element mean |shift(query, k) - candidates[i]|
    up to rounding.  One cityblock ``cdist`` compares the flattened candidates
    with the query's width/2 shifted copies, which are windows over the query
    doubled along its columns.  Its summation order differs from numpy's, so
    each entry lies within ``screen_slack(table, rows * width)`` of the exact
    mean; ``confirm_min`` turns the table into the exact answer.  Inputs must
    be finite.
    """
    query = np.asarray(query, dtype=np.float64)
    candidates = np.asarray(candidates, dtype=np.float64)
    if candidates.shape[1:] != query.shape:
        raise ValueError(
            f"descriptor shapes differ: {query.shape} vs {candidates.shape[1:]}"
        )
    if not (np.isfinite(query).all() and np.isfinite(candidates).all()):
        raise ValueError("descriptor has a non-finite value")
    n, rows, width = candidates.shape
    size = rows * width
    doubled = np.concatenate([query, query], axis=1)
    # window m is shift(query, width - m), so shifts 0..width/2-1 are windows width, width-1, ...
    windows = sliding_window_view(doubled, width, axis=1)[:, width : width - width // 2 : -1]
    shifted = windows.transpose(1, 0, 2).reshape(width // 2, size)
    return cdist(candidates.reshape(n, size), shifted, "cityblock") / size


def screen_slack(table: np.ndarray, size: int) -> np.ndarray:
    """Bound on |screen entry - exact mean| for means over ``size`` elements.

    Both are a sum of ``size`` rounded absolute differences, in some order,
    then one division, so each lies within about size·eps/2 relative (plus
    half a subnormal) of the true mean.  The bound doubles their sum:
    2·(size + 2)·eps relative to the screen entry, plus 4 subnormals.
    """
    return 2 * (size + 2) * _EPS * table + 4 * _TINY


def confirm_min(
    query: np.ndarray, candidates: np.ndarray, table: np.ndarray
) -> tuple[int, int, float]:
    """(candidate, shift, d_l1) with the smallest exact mean L1 distance.

    ``table`` is ``shift_l1_table(query, candidates)``.  Only the entries
    whose slack reaches the screen minimum are recomputed, with the exact
    arithmetic of a one-shift search: the candidate's columns turned by
    -shift and laid out column-major, minus the query, absolute values,
    numpy's pairwise sum, divided by the size.  Ties go to the earliest
    candidate, then the smallest shift.
    """
    query = np.asarray(query, dtype=np.float64)
    candidates = np.asarray(candidates, dtype=np.float64)
    _, rows, width = candidates.shape
    size = rows * width
    slack = screen_slack(table, size)
    lowest = int(np.argmin(table))
    keep = np.flatnonzero(table - slack <= table.flat[lowest] + slack.flat[lowest])
    ids, shifts = np.divmod(keep, table.shape[1])  # ascending, so argmin breaks ties
    cols = (np.arange(width) + shifts[:, None]) % width
    aligned = candidates[ids[:, None, None], np.arange(rows)[:, None], cols[:, None, :]]
    diff = aligned.transpose(0, 2, 1).reshape(len(keep), size) - query.T.ravel()
    exact = np.abs(diff).sum(axis=1) / size
    best = int(np.argmin(exact))
    return int(ids[best]), int(shifts[best]), float(exact[best])


def best_shift_l1(query: np.ndarray, candidate: np.ndarray) -> MatchScore:
    """Minimize the per-element mean |shift(query, k) - candidate| over k.

    Equivalently the candidate is shifted by -k; so best_shift is the amount
    the candidate's columns lead the query's.  Because the underlying spectra
    are centro-symmetric the descriptor is periodic in half its width, so only
    shifts in [0, width/2) are searched.  The shifts are screened by
    ``shift_l1_table`` and the winner confirmed by ``confirm_min``, so d_l1
    is the exact pairwise mean of the winning shift.  Ties go to the
    smallest shift.
    """
    candidates = np.asarray(candidate)[None]
    _, k, d_l1 = confirm_min(query, candidates, shift_l1_table(query, candidates))
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
