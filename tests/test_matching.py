"""Circular-shift search and the row-cosine gate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from fresco import matching, synth
from fresco.config import Config
from fresco.index import KeyframeIndex
from fresco.matching import (
    best_shift_l1,
    circular_shift,
    confirm_min,
    row_cosine,
    screen_slack,
    shift_l1_table,
)
from fresco.pipeline import describe


def _rand_desc(seed, rows=32, cols=120):
    return np.random.default_rng(seed).uniform(0, 8, (rows, cols))


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
    dists = [np.abs(circular_shift(q, k) - c).mean() for k in range(60)]
    assert int(np.argmin(dists)) == 17
    assert dists[17] == 0.0
    assert sorted(dists)[1] > 0.0  # the minimum is unique
    score = best_shift_l1(q, c)
    assert score.best_shift == 17
    assert score.d_l1 == 0.0


def test_agrees_with_brute_force_on_noisy_pairs():
    rng = np.random.default_rng(4)
    for _ in range(10):
        q = rng.uniform(0, 8, (16, 40))
        c = rng.uniform(0, 8, (16, 40))
        dists = [np.abs(circular_shift(q, k) - c).mean() for k in range(20)]
        score = best_shift_l1(q, c)
        assert score.best_shift == int(np.argmin(dists))
        assert score.d_l1 == pytest.approx(min(dists), abs=1e-15)


def test_noise_bounds_the_distance():
    rng = np.random.default_rng(5)
    q = _rand_desc(6)
    eps = 0.01
    c = q + rng.uniform(-eps, eps, q.shape)
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


def _loop_table(query, candidates):
    """The former per-shift search, kept as the bitwise reference: each
    candidate laid out column-major and doubled, one flat pass per shift."""
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


def _loop_best(query, candidates):
    table = _loop_table(query, candidates)
    shifts = table.argmin(axis=1)
    dists = table.min(axis=1)
    best = int(np.argmin(dists))
    return best, int(shifts[best]), float(dists[best])


def _assert_bitwise_like_the_loop(query, candidates):
    want = _loop_best(query, candidates)
    if len(candidates) == 1:
        score = best_shift_l1(query, candidates[0])
        assert (0, score.best_shift, score.d_l1) == want
    idx = KeyframeIndex(exclusion_horizon=0)
    for fid, c in enumerate(candidates):
        idx.insert(fid, c)
    order = [fid for fid, _ in idx.retrieve(query, len(candidates))]
    i, k, d = _loop_best(query, candidates[order])
    res = idx.match(query, len(candidates), np.inf, np.inf)
    assert (res.candidate_id, res.best_shift, res.d_l1) == (order[i], k, d)


def test_screen_and_confirm_equal_the_per_shift_loop_bitwise():
    rng = np.random.default_rng(40)
    for rows, width, n in ((32, 120, 20), (16, 40, 5), (5, 33, 3), (1, 7, 4), (3, 2, 2), (7, 40, 1)):
        for _ in range(3):
            q = rng.uniform(0, 8, (rows, width))
            c = rng.uniform(0, 8, (n, rows, width))
            c[n // 2] = np.roll(q, int(rng.integers(width)), axis=1) + rng.normal(0, 1e-9, q.shape)
            _assert_bitwise_like_the_loop(q, c)


def test_exact_ties_keep_the_earliest_candidate_and_smallest_shift():
    rng = np.random.default_rng(41)
    # periodic in a quarter of the width: shifts k and k + 30 tie exactly
    d = np.tile(rng.uniform(0, 8, (32, 30)), (1, 4))
    q = np.roll(d, 5, axis=1) + rng.normal(0, 1e-3, d.shape)
    c = np.stack([rng.uniform(0, 8, d.shape), d, d.copy(), rng.uniform(0, 8, d.shape)])
    assert _loop_best(q, c)[:2] == (1, 25)
    _assert_bitwise_like_the_loop(q, c)
    _assert_bitwise_like_the_loop(q, c[1:2])


def test_near_ties_inside_the_screen_slack_are_confirmed_exactly():
    # a constant query makes every shift score the same multiset of terms,
    # so the exact means differ only in rounding, well inside the slack
    rng = np.random.default_rng(0)
    q = np.full((32, 120), 4.0)
    c = rng.uniform(0, 8, (3, 32, 120))
    exact = _loop_table(q, c)
    assert all(len(np.unique(row)) > 1 for row in exact)
    assert np.all(np.ptp(exact, axis=1) <= screen_slack(exact.min(axis=1), q.size))
    _assert_bitwise_like_the_loop(q, c)
    for one in c:
        _assert_bitwise_like_the_loop(q, one[None])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_screen_entries_lie_within_the_documented_slack(data):
    # arbitrary inputs, half-periodic ones (a drawn half tiled, the second copy
    # perturbed by up to a drawn delta, 0 included) and odd widths
    kind = data.draw(st.sampled_from(["arbitrary", "half-periodic", "odd"]), label="kind")
    rows = data.draw(st.integers(1, 8), label="rows")
    widths = {
        "arbitrary": st.integers(2, 40),
        "half-periodic": st.integers(1, 20).map(lambda h: 2 * h),
        "odd": st.integers(1, 19).map(lambda h: 2 * h + 1),
    }
    width = data.draw(widths[kind], label="width")
    n = data.draw(st.integers(1, 4), label="n")
    values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)

    def draw_descs(shape, label):
        if kind != "half-periodic":
            return data.draw(arrays(np.float64, shape, elements=values), label=label)
        half_shape = shape[:-1] + (width // 2,)
        half = data.draw(arrays(np.float64, half_shape, elements=values), label=label)
        delta = data.draw(st.just(0.0) | st.floats(1e-12, 1e3), label=f"{label} delta")
        unit = data.draw(arrays(np.float64, half_shape, elements=st.floats(-1, 1)), label=f"{label} noise")
        return np.concatenate([half, half + delta * unit], axis=-1)

    q = draw_descs((rows, width), "query")
    c = draw_descs((n, rows, width), "candidates")
    table, slack = shift_l1_table(q, c)
    assert table.shape == slack.shape == (n, width // 2)
    brute = np.array(
        [[np.abs(np.roll(q, k, 1) - ci).mean() for k in range(width // 2)] for ci in c]
    )
    assert np.all(np.abs(table - brute) <= slack)
    assert confirm_min(q, c, table, slack) == _loop_best(q, c)


def test_scene_descriptors_leave_few_entries_to_the_second_tier(monkeypatch):
    # spectrum descriptors repeat after half their width, so the half-width
    # tier settles nearly every (candidate, shift) entry on its own
    cfg = Config()
    scenes = [synth.generate(synth.SceneSpec(seed=s, pillars=25, walls=6, rings=2)) for s in range(50, 70)]
    c = np.stack([describe(s, cfg) for s in scenes])
    q = describe(synth.perturb(scenes[7], tx=0.6, ty=-0.4, yaw_deg=35.0), cfg)
    assert c.shape == (20, 32, 120)
    calls = []

    def recording(xa, xb, metric):
        calls.append((len(xa), len(xb)))
        return cdist(xa, xb, metric)

    monkeypatch.setattr(matching, "cdist", recording)
    idx = KeyframeIndex(exclusion_horizon=0)
    for fid, desc in enumerate(c):
        idx.insert(fid, desc)
    order = [fid for fid, _ in idx.retrieve(q, 20)]
    res = idx.match(q, 20, np.inf, np.inf)
    i, k, d = _loop_best(q, c[order])
    assert (res.candidate_id, res.best_shift, res.d_l1) == (order[i], k, d)
    assert res.candidate_id == 7
    (n1, k1), (n2, k2) = calls
    assert (n1, k1) == (20, 60)
    assert n2 * k2 < 0.1 * n1 * k1


def test_random_descriptors_are_screened_on_every_column():
    # far from half-periodic, so tier 1 rules nothing out and tier 2 brings
    # every entry to the full-width mean and its rounding slack
    rng = np.random.default_rng(42)
    q = rng.uniform(0.05, 1.05, (32, 120))
    c = rng.uniform(0.05, 1.05, (20, 32, 120))
    table, slack = shift_l1_table(q, c)
    np.testing.assert_array_equal(slack, screen_slack(table, q.size))


def test_non_finite_descriptors_rejected():
    d = _rand_desc(11)
    for bad in (np.inf, -np.inf, np.nan):
        e = d.copy()
        e[3, 7] = bad
        for args in ((e, d), (d, e)):
            with pytest.raises(ValueError, match="non-finite"):
                best_shift_l1(*args)
            with pytest.raises(ValueError, match="non-finite"):
                shift_l1_table(args[0], args[1][None])


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
