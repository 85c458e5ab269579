"""Descriptor comparison: circular shift search and row-wise cosine check."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class MatchScore:
    d_l1: float
    best_shift: int


def circular_shift(desc: np.ndarray, k: int) -> np.ndarray:
    """Shift columns right by k: output column j = input column (j - k) mod width."""
    return np.roll(np.asarray(desc), k, axis=1)


def shift_l1_table(query: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Shift-searched mean L1 distances of a query against a stack of candidates.

    ``candidates`` has shape (n, rows, width); entry [i, k] of the returned
    (n, width/2) table is the per-element mean |shift(query, k) - candidates[i]|.
    Each candidate is laid out column-major and doubled, so its shift by -k is
    one contiguous slice and every shift costs three flat passes over all
    candidates at once.  Exact float64 for arbitrary arrays.
    """
    query = np.asarray(query, dtype=np.float64)
    candidates = np.asarray(candidates, dtype=np.float64)
    if candidates.shape[1:] != query.shape:
        raise ValueError(
            f"descriptor shapes differ: {query.shape} vs {candidates.shape[1:]}"
        )
    n, rows, width = candidates.shape
    size = rows * width
    cols = candidates.transpose(0, 2, 1)
    doubled = np.concatenate([cols, cols], axis=1).reshape(n, 2 * size)
    flat_query = query.T.ravel()
    diff = np.empty((n, size))
    sums = np.empty((n, width // 2))
    for k in range(width // 2):
        np.subtract(doubled[:, k * rows : k * rows + size], flat_query, out=diff)
        np.abs(diff, out=diff)
        np.sum(diff, axis=1, out=sums[:, k])
    return sums / size


def best_shift_l1(query: np.ndarray, candidate: np.ndarray) -> MatchScore:
    """Minimize the per-element mean |shift(query, k) - candidate| over k.

    Equivalently the candidate is shifted by -k; so best_shift is the amount
    the candidate's columns lead the query's.  Because the underlying spectra
    are centro-symmetric the descriptor is periodic in half its width, so only
    shifts in [0, width/2) are searched.  Ties go to the smallest shift.
    """
    dists = shift_l1_table(query, np.asarray(candidate)[None])[0]
    k = int(np.argmin(dists))
    return MatchScore(float(dists[k]), k)


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
