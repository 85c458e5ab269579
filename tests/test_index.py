"""Retrieval keys, the keyframe index, and its on-disk format."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from fresco import index as index_module
from fresco import synth
from fresco.cloud import FormatError
from fresco.config import Config
from fresco.index import DegenerateDescriptorError, KeyframeIndex, make_key
from fresco.matching import best_shift_l1
from fresco.pipeline import describe
from fresco.properties import linear_scan


def _rand_desc(rng, rows=8, cols=12):
    # a random half, tiled: the index stores descriptors that repeat after half their width
    return np.tile(rng.uniform(0.1, 4.0, (rows, cols // 2)), 2)


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


def test_insert_rejects_ids_a_frix_file_cannot_store(tmp_path):
    rng = np.random.default_rng(21)
    idx = KeyframeIndex(exclusion_horizon=0)
    idx.insert(np.uint64(2), _rand_desc(rng))  # numpy integers pass
    idx.save(tmp_path / "before.frix")
    for bad in (3.2, 3.7, np.float64(3.0), "4", None):
        with pytest.raises(ValueError, match="is not an integer"):
            idx.insert(bad, _rand_desc(rng))
    for bad in (-5, 2**64, np.int64(-1)):
        with pytest.raises(ValueError, match="does not fit in an unsigned 64-bit integer"):
            KeyframeIndex().insert(bad, _rand_desc(rng))
    with pytest.raises(ValueError, match="does not fit"):
        idx.insert(2**64, _rand_desc(rng))
    assert idx.ids == [2] and type(idx.ids[0]) is int
    idx.save(tmp_path / "after.frix")
    assert (tmp_path / "after.frix").read_bytes() == (tmp_path / "before.frix").read_bytes()
    idx.insert(2**64 - 1, _rand_desc(rng))
    idx.save(tmp_path / "max.frix")
    assert KeyframeIndex.load(tmp_path / "max.frix").ids == [2, 2**64 - 1]


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


def test_non_finite_descriptors_are_rejected_and_leave_the_index_unchanged(tmp_path):
    rng = np.random.default_rng(19)
    idx = KeyframeIndex(exclusion_horizon=0)
    idx.insert(0, _rand_desc(rng))
    idx.save(tmp_path / "before.frix")
    for bad in (np.inf, -np.inf, np.nan):
        d = _rand_desc(rng)
        d[2, 5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            idx.insert(1, d)
        with pytest.raises(ValueError, match="non-finite"):
            idx.match(d, 1, np.inf, np.inf)
        with pytest.raises(ValueError, match="non-finite"):
            KeyframeIndex().match(d, 1, np.inf, np.inf)
    assert idx.ids == [0]
    idx.save(tmp_path / "after.frix")
    assert (tmp_path / "after.frix").read_bytes() == (tmp_path / "before.frix").read_bytes()
    assert KeyframeIndex.load(tmp_path / "after.frix").ids == [0]
    idx.insert(1, _rand_desc(rng))


def test_insert_rejects_what_does_not_repeat_after_half_its_width(tmp_path):
    rng = np.random.default_rng(23)
    idx = KeyframeIndex(exclusion_horizon=0)
    idx.insert(0, _rand_desc(rng))
    idx.save(tmp_path / "before.frix")
    with pytest.raises(ValueError, match="width 13 is odd"):
        KeyframeIndex().insert(0, rng.uniform(0.1, 4.0, (8, 13)))
    with pytest.raises(ValueError, match="does not repeat after half its width"):
        idx.insert(1, rng.uniform(0.1, 4.0, (8, 12)))
    assert idx.ids == [0]
    idx.save(tmp_path / "after.frix")
    assert (tmp_path / "after.frix").read_bytes() == (tmp_path / "before.frix").read_bytes()


def _frix(ids, descs) -> bytes:
    descs = np.asarray(descs, dtype="<f4")
    header = b"FRIX" + struct.pack("<IIIQ", 2, *descs.shape[1:], len(ids))
    return header + np.asarray(ids, dtype="<u8").tobytes() + descs.tobytes()


def test_load_rejects_an_entry_that_does_not_repeat(tmp_path):
    rng = np.random.default_rng(24)
    descs = np.stack([_rand_desc(rng) for _ in range(3)])
    descs[1, 4, 9] += 0.5
    p = tmp_path / "odd.frix"
    p.write_bytes(_frix([3, 5, 8], descs))
    with pytest.raises(FormatError, match="frame 5: descriptor does not repeat after half its"):
        KeyframeIndex.load(p)


def test_load_keeps_halves_a_float32_ulp_apart(tmp_path):
    # a v2 writer that rounds each half to float32 on its own may leave them
    # one float32 ulp apart, at most 2**-19 for values in [16, 32)
    rng = np.random.default_rng(25)
    descs = np.stack([_rand_desc(rng) + 15.0 for _ in range(3)]).astype(np.float32)
    descs[2, 1, 8] = np.nextafter(descs[2, 1, 2], np.float32(np.inf))
    assert np.abs(descs[2, :, :6] - descs[2, :, 6:]).max() == 2.0**-19
    p = tmp_path / "ulp.frix"
    p.write_bytes(_frix([0, 1, 2], descs))
    idx = KeyframeIndex.load(p, exclusion_horizon=0)
    assert idx.ids == [0, 1, 2]
    np.testing.assert_array_equal(idx.descriptor(2), np.tile(descs[2, :, :6], 2))
    res = idx.match(np.roll(descs[2], 4, axis=1), 3, 0.1, 0.1)
    assert (res.candidate_id, res.best_shift, res.accepted) == (2, 2, True)
    # shift(query, 2) begins with the stored second half, one ulp off in one of 48 terms
    assert res.d_l1 == pytest.approx(2.0**-19 / 48, rel=1e-12)


def test_descriptor_returns_a_fresh_full_width_array():
    rng = np.random.default_rng(26)
    idx = KeyframeIndex(exclusion_horizon=0)
    for i in range(4):
        idx.insert(i, _rand_desc(rng, 32, 120))
    q = _rand_desc(rng, 32, 120)
    before = idx.match(q, 4, np.inf, np.inf)
    got = idx.descriptor(before.candidate_id)
    assert got.shape == (32, 120)
    got[:] = q  # would make the stored entry the query's exact copy
    assert idx.match(q, 4, np.inf, np.inf) == before
    assert idx.descriptor(before.candidate_id) is not got


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
        assert [fid for fid, _ in idx.retrieve(q, 20)] == linear_scan(keys, make_key(q), 20)


def _scan(keys, horizon, query_key, k):
    # linear_scan over the eligible keys, with the distances it ranks by
    rows = np.array(keys[: max(0, len(keys) - horizon)]).reshape(-1, query_key.size)
    want = linear_scan(rows, query_key, k)
    return want, cdist(query_key[None], rows)[0][want].tolist()


def test_tied_keys_rank_like_a_linear_scan_at_every_size():
    rng = np.random.default_rng(20)
    d, e = _rand_desc(rng), _rand_desc(rng)
    for size in range(60, 131):  # sizes of both parities, each cut through a run of exact ties
        idx = KeyframeIndex(exclusion_horizon=0)
        for i in range(size):
            idx.insert(i, d if i % 2 else e)
        assert idx.retrieve(d, 5) == [(i, 0.0) for i in (1, 3, 5, 7, 9)]
        assert idx.retrieve(e, 5) == [(i, 0.0) for i in (0, 2, 4, 6, 8)]
        keys = [make_key(d if i % 2 else e) for i in range(size)]
        q = _rand_desc(rng)
        want, dist = _scan(keys, 0, make_key(q), 5)
        assert idx.retrieve(q, 5) == list(zip(want, dist))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(0, 40),
    inserts=st.integers(0, 220),
    every=st.integers(1, 40),
)
@example(seed=0, horizon=0, inserts=220, every=1)
def test_online_retrieval_equals_a_linear_scan(seed, horizon, inserts, every):
    # a walk of inserts and retrieves over a few repeated descriptors, so
    # exact ties meet the k-th place while the index grows
    rng = np.random.default_rng(seed)
    pool = [_rand_desc(rng) for _ in range(4)]

    def draw():
        return pool[rng.integers(4)] if rng.random() < 0.7 else _rand_desc(rng)

    idx = KeyframeIndex(exclusion_horizon=horizon)
    keys = []
    for i in range(inserts):
        desc = draw()
        idx.insert(i, desc)
        keys.append(make_key(desc))
        if i % every == 0:
            q, k = draw(), int(rng.integers(1, 31))
            want, dist = _scan(keys, horizon, make_key(q), k)
            assert idx.retrieve(q, k) == list(zip(want, dist))


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


def test_match_takes_its_candidates_from_one_retrieve(monkeypatch):
    rng = np.random.default_rng(13)
    idx = KeyframeIndex(exclusion_horizon=2)
    for i in range(30):
        idx.insert(i, _rand_desc(rng, 32, 120))
    calls, real = [], KeyframeIndex.retrieve

    def recording(self, desc, num_candidates):
        calls.append(real(self, desc, num_candidates))
        return calls[-1]

    monkeypatch.setattr(KeyframeIndex, "retrieve", recording)
    res = idx.match(_rand_desc(rng, 32, 120), 5, np.inf, np.inf)
    assert len(calls) == 1 and len(calls[0]) == 5
    assert res.candidate_id in [fid for fid, _ in calls[0]]


def test_match_screens_through_one_module_level_shift_table_call(monkeypatch):
    # the benchmark's shift-screen span wraps this name and sizes the call
    # from its positional (rows, width) query and (n, rows, width/2) halves
    rng = np.random.default_rng(14)
    idx = KeyframeIndex(exclusion_horizon=0)
    for i in range(12):
        idx.insert(i, _rand_desc(rng, 32, 120))
    calls, real = [], index_module.shift_l1_table

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(index_module, "shift_l1_table", recording)
    idx.match(_rand_desc(rng, 32, 120), 5, np.inf, np.inf)
    assert len(calls) == 1
    (args, kwargs), = calls
    assert kwargs == {} and len(args) == 2
    assert all(isinstance(a, np.ndarray) for a in args)
    assert (args[0].shape, args[1].shape) == ((32, 120), (5, 32, 60))


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


def test_a_saved_file_starts_with_the_24_byte_header(tmp_path):
    assert index_module._HEADER.size == 24
    rng = np.random.default_rng(3)
    idx = KeyframeIndex(exclusion_horizon=0)
    for fid in (4, 9, 11):
        idx.insert(fid, _rand_desc(rng))
    path = tmp_path / "h.frix"
    idx.save(path)
    # magic, then u32 version, rows, columns and a u64 entry count
    assert path.read_bytes()[:24] == b"FRIX" + struct.pack("<IIIQ", 2, 8, 12, 3)


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
    for i in range(70):  # 65 eligible keys
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
    d = np.tile(rng.uniform(0.1, 4.0, (32, 30)), (1, 4))
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
