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


def _half_period_deviation(descs: np.ndarray) -> np.ndarray:
    """max |d[:, j] - d[:, j + width/2]| of each (rows, width) descriptor in
    ``descs``, inflated by a few eps so it bounds the exact deviation; inf
    for an odd width."""
    width = descs.shape[-1]
    if width % 2:
        return np.full(descs.shape[:-2], np.inf)
    half = width // 2
    diff = descs[..., :half] - descs[..., half:]
    np.abs(diff, out=diff)
    # one flat axis per descriptor: numpy reduces it much faster than two
    return diff.reshape(*descs.shape[:-2], -1).max(axis=-1) * (1 + 4 * _EPS)


def shift_l1_table(query: np.ndarray, candidates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Screened shift-searched mean L1 distances of a query against a stack of
    candidates, each with a bound on its distance from the exact mean.

    ``candidates`` has shape (n, rows, width); entry [i, k] of the returned
    (n, width/2) ``table`` estimates the per-element mean
    |shift(query, k) - candidates[i]|, and lies within ``slack[i, k]`` of the
    exact mean ``confirm_min`` computes.  The shifted queries are windows
    over the query doubled along its columns.  The screen runs in two tiers,
    each one cityblock ``cdist``:

    - tier 1 compares only the first width/2 columns of every (candidate,
      shift) pair.  A descriptor that repeats after half its width, as a
      spectrum descriptor does, scores the same on both halves, so the
      half-width mean misses the full one by at most half the sum of the
      query's and the candidate's half-period deviations (``dev``).  The
      slack is that plus the rounding of both means,
      ``screen_slack(table + dev, rows * width) + dev``.
    - tier 2 adds the other columns for the candidates × shifts block that
      holds every entry tier 1 cannot rule out: its lower bound is at or
      below the smallest upper bound.  Those entries become full-width means
      with slack ``screen_slack(table, rows * width)``.

    The bounds hold for any finite input, so ``confirm_min`` always finds
    the exact minimizer.  On descriptors that are not half-periodic, or of
    odd width, ``dev`` is large or inf and tier 2 covers every entry, which
    costs a little more than one full-width pass.  Inputs must be finite.
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
    half = width // 2
    size = rows * width
    doubled = np.concatenate([query, query], axis=1)
    # window m is shift(query, width - m), so shifts 0..half-1 are windows width, width-1, ...
    shifted = sliding_window_view(doubled, width, axis=1)[:, width : width - half : -1]
    shifted = shifted.transpose(1, 0, 2)  # (shift, rows, width)
    sums = cdist(
        candidates[:, :, :half].reshape(n, -1), shifted[:, :, :half].reshape(half, -1), "cityblock"
    )
    table = sums / (rows * half)
    dev = (_half_period_deviation(candidates)[:, None] + _half_period_deviation(query)) / 2
    slack = screen_slack(table + dev, size) + dev
    undecided = table - slack <= (table + slack).min()
    ids, ks = np.flatnonzero(undecided.any(axis=1)), np.flatnonzero(undecided.any(axis=0))
    block = np.ix_(ids, ks)
    rest = cdist(
        candidates[ids, :, half:].reshape(len(ids), -1),
        shifted[ks, :, half:].reshape(len(ks), -1),
        "cityblock",
    )
    table[block] = full = (sums[block] + rest) / size
    slack[block] = screen_slack(full, size)
    return table, slack


def screen_slack(table: np.ndarray, size: int) -> np.ndarray:
    """Rounding bound on |screened full-width mean - exact mean| for means
    over ``size`` elements.

    Both are a sum of ``size`` rounded absolute differences, in some order
    and in at most two parts, then one division, so each lies within about
    size·eps/2 relative (plus half a subnormal) of the true mean.  The bound
    doubles their sum: 2·(size + 2)·eps relative to ``table``, plus 4
    subnormals.  For a half-width entry ``shift_l1_table`` passes the
    entry plus its half-period term, which bounds the exact mean, with the
    full size, so the bound also covers the half-width sum's fewer terms.
    """
    return 2 * (size + 2) * _EPS * table + 4 * _TINY


def confirm_min(
    query: np.ndarray, candidates: np.ndarray, table: np.ndarray, slack: np.ndarray
) -> tuple[int, int, float]:
    """(candidate, shift, d_l1) with the smallest exact mean L1 distance.

    ``table, slack`` is ``shift_l1_table(query, candidates)``: each exact
    mean lies within its entry's slack of its table entry.  Only the entries
    whose lower bound reaches the smallest upper bound can be the minimum,
    and only those are recomputed, with the exact arithmetic of a one-shift
    search: the candidate's columns turned by -shift and laid out
    column-major, minus the query, absolute values, numpy's pairwise sum,
    divided by the size.  Ties go to the earliest candidate, then the
    smallest shift.
    """
    query = np.asarray(query, dtype=np.float64)
    candidates = np.asarray(candidates, dtype=np.float64)
    _, rows, width = candidates.shape
    size = rows * width
    keep = np.flatnonzero(table - slack <= (table + slack).min())
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
    ``shift_l1_table``, on half the columns where the two descriptors'
    half-period deviations allow, and the winner confirmed by
    ``confirm_min``, so d_l1 is the exact full-width pairwise mean of the
    winning shift.  Ties go to the smallest shift.
    """
    candidates = np.asarray(candidate)[None]
    _, k, d_l1 = confirm_min(query, candidates, *shift_l1_table(query, candidates))
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
