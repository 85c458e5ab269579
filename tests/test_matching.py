"""Circular-shift search and the row-cosine gate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fresco import synth
from fresco.config import Config
from fresco.index import KeyframeIndex
from fresco.matching import (
    HALF_PERIOD_RTOL,
    best_shift_l1,
    circular_shift,
    descriptor_half,
    row_cosine,
    shift_l1_table,
)
from fresco.pipeline import describe


def _tiled(rng, shape, low=0.0, high=8.0):
    # a random half, tiled: repeats after half its width, as a descriptor does
    return np.tile(rng.uniform(low, high, shape[:-1] + (shape[-1] // 2,)), 2)


def _rand_desc(seed, rows=32, cols=120):
    return _tiled(np.random.default_rng(seed), (rows, cols))


def _scene_desc(seed):
    scene = synth.generate(synth.SceneSpec(seed=seed, pillars=25, walls=6, rings=2))
    return describe(scene, Config())


def test_shift_zero_and_full_period_are_identity():
    d = _rand_desc(0)
    np.testing.assert_array_equal(circular_shift(d, 0), d)
    np.testing.assert_array_equal(circular_shift(d, 120), d)


def test_shift_composition_cancels():
    d = _rand_desc(1)
    np.testing.assert_array_equal(circular_shift(circular_shift(d, 5), 115), d)


def test_shift_direction_is_pinned():
    d = np.arange(12.0).reshape(1, 12)
    out = circular_shift(d, 3)
    # column j of the output holds column (j - 3) mod 12 of the input
    np.testing.assert_array_equal(out[0], [(j - 3) % 12 for j in range(12)])


def test_identical_descriptors_score_zero_at_zero_shift():
    d = _rand_desc(2)
    score = best_shift_l1(d, d)
    assert score.best_shift == 0
    assert score.d_l1 == 0.0


def test_recovers_injected_shift_exactly():
    q = _rand_desc(3)
    c = circular_shift(q, 17)
    # oracle: brute-force scan over every legal shift of the query
    dists = [np.abs(circular_shift(q, k)[:, :60] - c[:, :60]).mean() for k in range(60)]
    assert int(np.argmin(dists)) == 17
    assert dists[17] == 0.0
    assert sorted(dists)[1] > 0.0  # the minimum is unique
    score = best_shift_l1(q, c)
    assert score.best_shift == 17
    assert score.d_l1 == 0.0


def test_agrees_with_brute_force_on_noisy_pairs():
    rng = np.random.default_rng(4)
    for _ in range(10):
        q = _tiled(rng, (16, 40))
        c = _tiled(rng, (16, 40))
        dists = [np.abs(circular_shift(q, k)[:, :20] - c[:, :20]).mean() for k in range(20)]
        score = best_shift_l1(q, c)
        assert score.best_shift == int(np.argmin(dists))
        assert abs(score.d_l1 - min(dists)) <= _rounding_bound(min(dists), 16 * 20)


def test_noise_bounds_the_distance():
    rng = np.random.default_rng(5)
    q = _rand_desc(6)
    eps = 0.01
    c = q + _tiled(rng, q.shape, -eps, eps)
    assert best_shift_l1(q, c).d_l1 <= eps


def test_every_shift_amount_is_recovered_mod_half_period():
    q = _rand_desc(7)
    for k in range(0, 60, 7):
        score = best_shift_l1(q, circular_shift(q, k))
        assert score.best_shift == k
        assert score.d_l1 == 0.0


def test_shifts_beyond_half_period_wrap_on_real_descriptors():
    # beyond width/2 the match relies on the descriptor's half-period symmetry,
    # which holds for spectrum descriptors but not for arbitrary arrays
    q = _scene_desc(31)
    for k in (60, 77, 119):
        score = best_shift_l1(q, circular_shift(q, k))
        assert score.best_shift == k % 60
        assert score.d_l1 <= 1e-6


def test_zero_distance_is_symmetric_on_real_descriptors():
    q = _scene_desc(32)
    c = circular_shift(q, 17)
    fwd = best_shift_l1(q, c)
    rev = best_shift_l1(c, q)
    assert fwd.d_l1 == 0.0
    assert fwd.best_shift == 17
    assert rev.d_l1 <= 1e-6
    assert rev.best_shift == 43  # (-17) mod 60


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        best_shift_l1(np.zeros((4, 8)), np.zeros((4, 10)))


def _rounding_bound(value, size):
    """How far two means of the same ``size`` non-negative rounded terms,
    summed in different orders and divided once, may lie apart: each is
    within about size·eps/2 relative (plus half a subnormal) of the true
    mean, and the bound doubles their sum."""
    info = np.finfo(np.float64)
    return 2 * (size + 2) * info.eps * value + 4 * info.smallest_subnormal


def _loop_table(query, halves):
    """The per-shift search, the brute-force reference: per shift k, the
    first width/2 columns of shift(query, k) minus every stored half, one
    row-major flat pass."""
    n, rows, half = halves.shape
    sums = np.empty((n, half))
    for k in range(half):
        diff = (circular_shift(query, k)[:, :half] - halves).reshape(n, rows * half)
        np.abs(diff, out=diff)
        np.sum(diff, axis=1, out=sums[:, k])
    return sums / (rows * half)


def _loop_best(query, halves):
    table = _loop_table(query, halves)
    shifts = table.argmin(axis=1)
    dists = table.min(axis=1)
    best = int(np.argmin(dists))
    return best, int(shifts[best]), float(dists[best])


def _assert_like_the_loop(query, candidates):
    # the same winner and shift as the loop, and its d_l1 up to rounding
    halves = candidates[..., : candidates.shape[-1] // 2]
    size = halves[0].size
    _, k, d = _loop_best(query, halves)
    if len(candidates) == 1:
        score = best_shift_l1(query, candidates[0])
        assert score.best_shift == k
        assert abs(score.d_l1 - d) <= _rounding_bound(d, size)
    idx = KeyframeIndex(exclusion_horizon=0)
    for fid, c in enumerate(candidates):
        idx.insert(fid, c)
    order = [fid for fid, _ in idx.retrieve(query, len(candidates))]
    i, k, d = _loop_best(query, halves[order])
    res = idx.match(query, len(candidates), np.inf, np.inf)
    assert (res.candidate_id, res.best_shift) == (order[i], k)
    assert abs(res.d_l1 - d) <= _rounding_bound(d, size)


def _assert_table_near_the_loop(query, halves):
    # every entry within the rounding bound of the loop's, and the table's
    # minimum a minimum of the loop's up to that bound
    n, rows, half = halves.shape
    table = shift_l1_table(query, halves)
    assert table.shape == (n, half)
    brute = _loop_table(query, halves)
    assert np.all(np.abs(table - brute) <= _rounding_bound(brute, rows * half))
    won = brute.flat[np.argmin(table)]
    assert won - brute.min() <= _rounding_bound(won, rows * half)


def test_table_minimum_matches_the_per_shift_loop():
    rng = np.random.default_rng(40)
    shapes = ((32, 120, 20), (16, 40, 5), (5, 34, 3), (1, 8, 4), (3, 2, 2), (7, 40, 1))
    for rows, width, n in shapes:
        for _ in range(3):
            q = _tiled(rng, (rows, width))
            c = _tiled(rng, (n, rows, width))
            noise = np.tile(rng.normal(0, 1e-9, (rows, width // 2)), 2)
            c[n // 2] = np.roll(q, int(rng.integers(width)), axis=1) + noise
            _assert_like_the_loop(q, c)
            # the query need not repeat after half its width
            _assert_like_the_loop(rng.uniform(0, 8, (rows, width)), c)


def test_exact_ties_keep_the_earliest_candidate_and_smallest_shift():
    rng = np.random.default_rng(41)
    # periodic in a quarter of the width, noise included: shifts k and k + 30 tie exactly
    d = np.tile(rng.uniform(0, 8, (32, 30)), (1, 4))
    q = np.roll(d + np.tile(rng.normal(0, 1e-3, (32, 30)), (1, 4)), 5, axis=1)
    c = np.stack([_tiled(rng, d.shape), d, d.copy(), _tiled(rng, d.shape)])
    assert _loop_best(q, c[..., :60])[:2] == (1, 25)
    _assert_like_the_loop(q, c)
    _assert_like_the_loop(q, c[1:2])
    # the earliest candidate wins at a larger shift than a later one's; integer
    # values make the retrieval keys tie exactly too, so retrieval keeps id order
    q = _tiled(rng, (32, 120)).round()
    c = np.stack([circular_shift(q, 20), circular_shift(q, 5)])
    assert _loop_best(q, c[..., :60]) == (0, 20, 0.0)
    _assert_like_the_loop(q, c)


def test_near_ties_of_permuted_halves_lie_within_the_rounding_bound():
    # against a constant query, candidates whose halves are permutations of
    # one another score the same multiset of terms at every shift, so their
    # means differ only in rounding
    rng = np.random.default_rng(0)
    q = np.full((32, 120), 4.0)
    half = rng.uniform(0, 8, 32 * 60)
    c = np.stack([rng.permutation(half).reshape(32, 60) for _ in range(6)])
    loop = _loop_table(q, c)
    assert len(np.unique(loop)) > 1
    assert np.ptp(loop) <= _rounding_bound(loop.min(), q.size // 2)
    _assert_table_near_the_loop(q, c)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_table_entries_lie_within_the_rounding_bound_of_the_loop(data):
    # any finite query and stored halves, near-copies of the query's
    # shifted halves included, so the minimum may be a near tie
    rows = data.draw(st.integers(1, 8), label="rows")
    half = data.draw(st.integers(1, 20), label="half")
    n = data.draw(st.integers(1, 4), label="n")
    values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    q = data.draw(arrays(np.float64, (rows, 2 * half), elements=values), label="query")
    c = data.draw(arrays(np.float64, (n, rows, half), elements=values), label="halves")
    if data.draw(st.booleans(), label="near copy"):
        k = data.draw(st.integers(0, half - 1), label="k")
        delta = data.draw(st.just(0.0) | st.floats(1e-12, 1e3), label="delta")
        unit = data.draw(arrays(np.float64, (rows, half), elements=st.floats(-1, 1)), label="noise")
        c[-1] = circular_shift(q, k)[:, :half] + delta * unit
    _assert_table_near_the_loop(q, c)


def test_each_table_row_is_the_one_candidate_table_bitwise():
    # a pair's entries do not depend on the other candidates in the call, so
    # best_shift_l1 and KeyframeIndex.match report the same d_l1 for it
    rng = np.random.default_rng(42)
    for rows, width, n in ((32, 120, 20), (5, 34, 3), (1, 2, 4)):
        c = _tiled(rng, (n, rows, width))
        for q in (_tiled(rng, (rows, width)), rng.uniform(0, 8, (rows, width))):
            halves = c[..., : width // 2]
            table = shift_l1_table(q, halves)
            for i in range(n):
                np.testing.assert_array_equal(table[i], shift_l1_table(q, halves[i : i + 1])[0])
            idx = KeyframeIndex(exclusion_horizon=0)
            for fid, d in enumerate(c):
                idx.insert(fid, d)
            res = idx.match(q, n, np.inf, np.inf)
            score = best_shift_l1(q, c[res.candidate_id])
            assert (score.best_shift, score.d_l1) == (res.best_shift, res.d_l1)


def test_descriptor_half_keeps_the_first_half_of_a_repeating_descriptor():
    d = _rand_desc(12, 8, 12)
    half = descriptor_half(d)
    np.testing.assert_array_equal(half, d[:, :6])
    half[0, 0] = -1.0  # a copy, not a view
    assert d[0, 0] != -1.0
    # halves that differ by one float32 ulp at a value of 16 or more still repeat
    e = np.full((4, 8), 16.0, dtype=np.float32)
    e[2, 5] = np.nextafter(np.float32(16.0), np.float32(32.0))
    assert np.abs(e[:, :4] - e[:, 4:]).max() == 2.0**-19
    np.testing.assert_array_equal(descriptor_half(e), np.full((4, 4), 16.0))
    assert best_shift_l1(e, e).d_l1 == 0.0


def test_descriptor_half_rejects_an_odd_width_and_a_non_repeating_array():
    with pytest.raises(ValueError, match="width 13 is odd"):
        descriptor_half(np.ones((4, 13)))
    d = _rand_desc(13, 8, 12)
    d[3, 8] += 4 * HALF_PERIOD_RTOL * np.abs(d).max()
    with pytest.raises(ValueError, match="does not repeat after half its width"):
        descriptor_half(d)
    with pytest.raises(ValueError, match="does not repeat after half its width"):
        best_shift_l1(_rand_desc(14), np.random.default_rng(15).uniform(0, 8, (32, 120)))


def test_non_finite_descriptors_rejected():
    d = _rand_desc(11)
    for bad in (np.inf, -np.inf, np.nan):
        e = d.copy()
        e[3, 7] = bad
        for args in ((e, d), (d, e)):
            with pytest.raises(ValueError, match="non-finite"):
                best_shift_l1(*args)
            with pytest.raises(ValueError, match="non-finite"):
                shift_l1_table(args[0], args[1][None, :, :60])


def test_row_cosine_identical_rows_scores_zero():
    d = _rand_desc(8)
    assert row_cosine(d, d) == pytest.approx(0.0, abs=1e-12)
    assert row_cosine(d, 2.0 * d) == pytest.approx(0.0, abs=1e-12)


def test_row_cosine_against_naive_loop():
    rng = np.random.default_rng(9)
    a = rng.normal(0, 1, (32, 120))
    b = rng.normal(0, 1, (32, 120))
    sims = []
    for ra, rb in zip(a, b):
        na, nb = np.linalg.norm(ra), np.linalg.norm(rb)
        sims.append(float(ra @ rb / (na * nb)) if na > 0 and nb > 0 else 0.0)
    want = 1.0 - float(np.mean(sims))
    assert row_cosine(a, b) == pytest.approx(want, abs=1e-12)


def test_row_cosine_range_and_zero_rows():
    rng = np.random.default_rng(10)
    for _ in range(20):
        a = rng.normal(0, 1, (8, 30))
        b = rng.normal(0, 1, (8, 30))
        assert 0.0 <= row_cosine(a, b) <= 2.0
    z = np.zeros((4, 10))
    # zero-norm rows contribute similarity 0, so the distance pins at 1
    assert row_cosine(z, z) == pytest.approx(1.0)
    assert row_cosine(a, -a) == pytest.approx(2.0)
