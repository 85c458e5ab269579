"""Retrieval keys, the keyframe index, and its on-disk format."""

import struct

import numpy as np
import pytest

from fresco import synth
from fresco.config import Config
from fresco.index import DegenerateDescriptorError, KeyframeIndex, make_key
from fresco.matching import best_shift_l1
from fresco.pipeline import describe
from fresco.spectrum import FormatError


def _rand_desc(rng, rows=8, cols=12):
    return rng.uniform(0.1, 4.0, (rows, cols))


def test_key_of_constant_descriptor():
    key = make_key(np.full((32, 120), 2.5))
    np.testing.assert_allclose(key[:32], 1.0, atol=1e-12)
    np.testing.assert_allclose(key[32:], 0.0, atol=1e-12)


def test_key_is_scale_invariant():
    d = _rand_desc(np.random.default_rng(0), 32, 120)
    np.testing.assert_allclose(make_key(3.7 * d), make_key(d), rtol=1e-12)


def test_key_against_naive_statistics():
    d = _rand_desc(np.random.default_rng(1), 16, 40)
    # oracle: per-row mean and population std, divided by the global mean
    g = d.mean()
    means = [row.mean() / g for row in d]
    stds = [np.sqrt(((row - row.mean()) ** 2).mean()) / g for row in d]
    np.testing.assert_allclose(make_key(d), np.concatenate([means, stds]), rtol=1e-12)


def test_key_first_half_averages_to_one():
    d = _rand_desc(np.random.default_rng(2), 32, 120)
    assert make_key(d)[:32].mean() == pytest.approx(1.0, abs=1e-12)


def test_key_rejects_non_positive_mean():
    with pytest.raises(DegenerateDescriptorError):
        make_key(np.zeros((4, 6)))


def test_insert_and_self_retrieve():
    rng = np.random.default_rng(3)
    idx = KeyframeIndex(exclusion_horizon=0)
    descs = [_rand_desc(rng) for _ in range(100)]
    for i, d in enumerate(descs):
        idx.insert(i, d)
    assert len(idx) == 100
    for i, d in enumerate(descs):
        got = idx.retrieve(d, 1)
        assert got[0][0] == i
        assert got[0][1] == pytest.approx(0.0, abs=1e-12)


def test_insert_requires_increasing_ids():
    idx = KeyframeIndex()
    idx.insert(5, _rand_desc(np.random.default_rng(4)))
    with pytest.raises(ValueError):
        idx.insert(5, _rand_desc(np.random.default_rng(5)))
    with pytest.raises(ValueError):
        idx.insert(4, _rand_desc(np.random.default_rng(6)))


def test_insert_rejects_a_descriptor_of_another_shape(tmp_path):
    rng = np.random.default_rng(17)
    idx = KeyframeIndex(exclusion_horizon=0)
    idx.insert(0, _rand_desc(rng, 8, 12))
    with pytest.raises(ValueError, match=r"shape \(8, 10\).*expected \(8, 12\)"):
        idx.insert(1, _rand_desc(rng, 8, 10))
    with pytest.raises(ValueError, match=r"shape \(96,\).*expected \(8, 12\)"):
        idx.insert(1, _rand_desc(rng, 8, 12).ravel())
    assert idx.ids == [0]
    for bad in (np.ones((1, 1)), np.ones(12), np.ones((2, 3, 4))):
        with pytest.raises(ValueError, match="at least 2 columns"):
            KeyframeIndex().insert(0, bad)
    # the index still saves and matches after the rejections
    idx.insert(1, _rand_desc(rng, 8, 12))
    idx.save(tmp_path / "a.frix")
    assert KeyframeIndex.load(tmp_path / "a.frix").ids == [0, 1]
    assert idx.match(_rand_desc(rng, 8, 12), 2, np.inf, np.inf).candidate_id in (0, 1)


def test_load_rejects_a_one_column_index_file(tmp_path):
    p = tmp_path / "narrow.frix"
    p.write_bytes(
        b"FRIX" + struct.pack("<IIIQ", 2, 1, 1, 1)
        + np.array([4], dtype="<u8").tobytes() + np.array([1.0], dtype="<f4").tobytes()
    )
    with pytest.raises(FormatError, match=r"frame 4: .*shape \(1, 1\)"):
        KeyframeIndex.load(p)


def test_retrieve_respects_candidate_count_and_size():
    rng = np.random.default_rng(7)
    idx = KeyframeIndex(exclusion_horizon=0)
    for i in range(5):
        idx.insert(i, _rand_desc(rng))
    assert len(idx.retrieve(_rand_desc(rng), 3)) == 3
    # asking for more than the index holds returns everything eligible
    assert len(idx.retrieve(_rand_desc(rng), 50)) == 5


def test_retrieve_matches_linear_scan():
    rng = np.random.default_rng(8)
    idx = KeyframeIndex(exclusion_horizon=0)
    descs = [_rand_desc(rng) for _ in range(500)]
    for i, d in enumerate(descs):
        idx.insert(i, d)
    keys = np.array([make_key(d) for d in descs])
    for _ in range(25):
        q = _rand_desc(rng)
        qk = make_key(q)
        # oracle: exhaustive distance scan, ties to the smaller id
        dist = np.linalg.norm(keys - qk, axis=1)
        order = sorted(range(500), key=lambda i: (dist[i], i))[:20]
        got = [fid for fid, _ in idx.retrieve(q, 20)]
        assert got == order


def test_exclusion_horizon_hides_recent_frames():
    rng = np.random.default_rng(9)
    idx = KeyframeIndex(exclusion_horizon=3)
    d = _rand_desc(rng)
    for i in range(5):
        idx.insert(i, d)
    got = [fid for fid, _ in idx.retrieve(d, 10)]
    assert got == [0, 1]  # frames 2..4 sit inside the horizon
    assert idx.eligible_ids == got

    short = KeyframeIndex(exclusion_horizon=3)
    for i in range(3):
        short.insert(i, d)
    assert short.retrieve(d, 10) == []
    assert short.eligible_ids == []
    res = short.match(d, 10, np.inf, np.inf)
    assert res.candidate_id is None
    assert not res.accepted
    assert res.d_l1 == np.inf


def test_match_identical_descriptor_accepted():
    rng = np.random.default_rng(10)
    idx = KeyframeIndex(exclusion_horizon=0)
    descs = [_rand_desc(rng, 32, 120) for _ in range(10)]
    for i, d in enumerate(descs):
        idx.insert(i, d)
    res = idx.match(descs[4], 5, 0.25, 0.10)
    assert res.candidate_id == 4
    assert res.accepted
    assert res.d_l1 == 0.0
    assert res.d_r == pytest.approx(0.0, abs=1e-12)
    assert res.best_shift == 0
    assert res.rotation_deg == 0.0


def test_match_rejection_keeps_scores():
    rng = np.random.default_rng(11)
    idx = KeyframeIndex(exclusion_horizon=0)
    for i in range(5):
        idx.insert(i, _rand_desc(rng, 32, 120))
    res = idx.match(_rand_desc(rng, 32, 120), 5, 1e-6, 1e-9)
    assert not res.accepted
    assert res.candidate_id is not None
    assert np.isfinite(res.d_l1) and res.d_l1 > 0


def test_match_rotated_scene_recovers_frame_and_shift():
    cfg = Config()
    idx = KeyframeIndex(exclusion_horizon=0)
    scenes = [
        synth.generate(synth.SceneSpec(seed=40 + i, pillars=22, walls=5, rings=2))
        for i in range(6)
    ]
    descs = [describe(s, cfg) for s in scenes]
    for i, d in enumerate(descs):
        idx.insert(i, d)
    q = describe(synth.perturb(scenes[3], 0.0, 0.0, 45.0), cfg)
    # oracle: brute-force best L1 over all stored descriptors
    brute = min(range(6), key=lambda i: best_shift_l1(q, descs[i]).d_l1)
    assert brute == 3
    res = idx.match(q, 6, np.inf, np.inf)
    assert res.candidate_id == 3
    assert res.best_shift == 15  # 45 degrees at 3 degrees per column
    assert res.rotation_deg == pytest.approx(45.0)


def test_match_is_deterministic():
    rng = np.random.default_rng(12)
    descs = [_rand_desc(rng, 32, 120) for _ in range(40)]
    q = _rand_desc(rng, 32, 120)
    runs = []
    for _ in range(2):
        idx = KeyframeIndex(exclusion_horizon=0)
        for i, d in enumerate(descs):
            idx.insert(i, d)
        r = idx.match(q, 10, np.inf, np.inf)
        runs.append((r.candidate_id, r.d_l1, r.d_r, r.best_shift))
    assert runs[0] == runs[1]


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    idx = KeyframeIndex(exclusion_horizon=0)
    for i in range(30):
        idx.insert(i * 2, _rand_desc(rng, 32, 120))
    p1 = tmp_path / "a.frix"
    idx.save(p1)
    back = KeyframeIndex.load(p1, exclusion_horizon=0)
    assert len(back) == 30
    assert back.ids == idx.ids
    # stored descriptors are float32 quantized; a second save is bit-identical
    p2 = tmp_path / "b.frix"
    back.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    q = _rand_desc(rng, 32, 120)
    assert [f for f, _ in back.retrieve(q, 5)] == [f for f, _ in
                                                   KeyframeIndex.load(p1, exclusion_horizon=0).retrieve(q, 5)]


def test_loaded_index_equals_inserting_its_float32_descriptors(tmp_path):
    rng = np.random.default_rng(19)
    idx = KeyframeIndex(exclusion_horizon=5)
    for i in range(70):  # past one k-d tree rebuild
        idx.insert(3 * i, _rand_desc(rng, 32, 120))
    p = tmp_path / "a.frix"
    idx.save(p)
    back = KeyframeIndex.load(p, exclusion_horizon=5)
    fresh = KeyframeIndex(exclusion_horizon=5)
    for fid in idx.ids:
        fresh.insert(fid, idx.descriptor(fid).astype(np.float32))
    for _ in range(5):
        q = _rand_desc(rng, 32, 120)
        assert back.retrieve(q, 10) == fresh.retrieve(q, 10)
        assert back.match(q, 10, np.inf, np.inf) == fresh.match(q, 10, np.inf, np.inf)
    q = np.roll(idx.descriptor(30), 7, axis=1)
    assert back.match(q, 10, 0.5, 0.5) == fresh.match(q, 10, 0.5, 0.5)


def test_empty_index_round_trip(tmp_path):
    p = tmp_path / "empty.frix"
    KeyframeIndex().save(p)
    back = KeyframeIndex.load(p)
    assert len(back) == 0
    res = back.match(np.full((4, 6), 1.0), 5, np.inf, np.inf)
    assert res.candidate_id is None


def test_load_rejects_corrupt_files(tmp_path):
    rng = np.random.default_rng(14)
    idx = KeyframeIndex()
    for i in range(3):
        idx.insert(i, _rand_desc(rng))
    p = tmp_path / "c.frix"
    idx.save(p)
    raw = p.read_bytes()

    bad = tmp_path / "bad.frix"
    bad.write_bytes(b"JUNK" + raw[4:])
    with pytest.raises(FormatError):
        KeyframeIndex.load(bad)

    bad.write_bytes(raw[: len(raw) - 7])
    with pytest.raises(FormatError):
        KeyframeIndex.load(bad)

    bad.write_bytes(raw + b"\x00\x01")
    with pytest.raises(FormatError):
        KeyframeIndex.load(bad)

    bad.write_bytes(raw[:10])
    with pytest.raises(FormatError):
        KeyframeIndex.load(bad)

    # header, then every u64 id, then every rows x cols f32 descriptor
    rows, cols = 8, 12
    second = 24 + 8 * 3 + 4 * rows * cols
    poisoned = bytearray(raw)
    poisoned[second + 4 * 5 : second + 4 * 6] = np.array([np.nan], dtype="<f4").tobytes()
    bad.write_bytes(bytes(poisoned))
    with pytest.raises(FormatError, match="frame 1 has a non-finite"):
        KeyframeIndex.load(bad)

    # ids must increase as they do on insert: [9, 1, 2] fails at frame 1
    reordered = bytearray(raw)
    reordered[24:32] = np.array([9], dtype="<u8").tobytes()
    bad.write_bytes(bytes(reordered))
    with pytest.raises(FormatError, match="frame id 1 not greater than last inserted 9"):
        KeyframeIndex.load(bad)


def _per_candidate_match(idx, q, num_candidates):
    # oracle: score retrieved candidates one at a time with an explicit
    # (rows, shift, width) gather, keeping the first strict minimum
    width = q.shape[1]
    cols = (np.arange(width)[None, :] + np.arange(width // 2)[:, None]) % width
    best = None
    for fid, _ in idx.retrieve(q, num_candidates):
        dists = np.abs(q[:, None, :] - idx.descriptor(fid)[:, cols]).mean(axis=(0, 2))
        k = int(np.argmin(dists))
        if best is None or dists[k] < best[1]:
            best = (fid, float(dists[k]), k)
    return best


def test_batched_match_agrees_with_per_candidate_loop():
    rng = np.random.default_rng(15)
    rand_idx = KeyframeIndex(exclusion_horizon=0)
    for i in range(60):
        rand_idx.insert(i, _rand_desc(rng, 32, 120))
    cfg = Config()
    scenes = [
        synth.generate(synth.SceneSpec(seed=60 + i, pillars=20, walls=5, rings=2))
        for i in range(8)
    ]
    real_idx = KeyframeIndex(exclusion_horizon=0)
    for i, s in enumerate(scenes):
        real_idx.insert(i, describe(s, cfg))
    cases = [(rand_idx, _rand_desc(rng, 32, 120)) for _ in range(10)]
    cases += [
        (real_idx, describe(synth.perturb(s, 0.5, -0.3, yaw), cfg))
        for s, yaw in zip(scenes, (0.0, 30.0, 95.0, 181.0, 250.0, 333.0, 12.0, 77.0))
    ]
    for idx, q in cases:
        want_id, want_d, want_k = _per_candidate_match(idx, q, 20)
        res = idx.match(q, 20, np.inf, np.inf)
        assert res.candidate_id == want_id
        assert res.best_shift == want_k
        assert res.d_l1 == pytest.approx(want_d, rel=1e-12)


def test_match_ties_go_to_smaller_id_and_smaller_shift():
    rng = np.random.default_rng(16)
    # four repeats of one block: shifts k and k + 30 score identically
    d = np.tile(_rand_desc(rng, 32, 30), (1, 4))
    idx = KeyframeIndex(exclusion_horizon=0)
    idx.insert(0, _rand_desc(rng, 32, 120))
    idx.insert(3, d)
    idx.insert(5, _rand_desc(rng, 32, 120))
    idx.insert(7, d.copy())
    # shifting the query by 25 or by 55 recovers the stored block exactly
    res = idx.match(np.roll(d, 5, axis=1), 4, np.inf, np.inf)
    assert res.candidate_id == 3
    assert res.best_shift == 25
    assert res.d_l1 == 0.0


def test_match_cosine_check_sees_the_aligned_candidate():
    rng = np.random.default_rng(18)
    d = _rand_desc(rng, 32, 120)
    idx = KeyframeIndex(exclusion_horizon=0)
    idx.insert(0, d)
    # a copy turned by 25 columns: shift(query, 25) reproduces the stored one
    res = idx.match(np.roll(d, -25, axis=1), 1, np.inf, 0.10)
    assert res.best_shift == 25
    assert res.d_l1 == 0.0
    assert res.d_r == pytest.approx(0.0, abs=1e-12)
    assert res.accepted


def test_descriptor_lookup_by_id():
    rng = np.random.default_rng(17)
    idx = KeyframeIndex()
    descs = {fid: _rand_desc(rng) for fid in (2, 5, 11, 40)}
    for fid, d in descs.items():
        idx.insert(fid, d)
    for fid, d in descs.items():
        np.testing.assert_array_equal(idx.descriptor(fid), d)
    for missing in (0, 3, 41):
        with pytest.raises(ValueError):
            idx.descriptor(missing)
    with pytest.raises(ValueError):
        KeyframeIndex().descriptor(0)
