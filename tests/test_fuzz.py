"""Parsers fed truncated, corrupted and random bytes or rows: each returns a
value or raises FormatError, nothing else (a numpy RuntimeWarning fails the
run, see pyproject.toml)."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fresco.cloud import FormatError, PointCloud, load_ascii_cloud, load_kitti_bin
from fresco.datasets import load_generic_poses, load_kitti_poses
from fresco.index import KeyframeIndex

ROWS, COLS, COUNT = 8, 12, 3
# byte ranges of a COUNT-entry FRIX file: header, u64 ids, f32 descriptors
REGIONS = {
    "header": (0, 24),
    "ids": (24, 24 + 8 * COUNT),
    "descriptors": (24 + 8 * COUNT, 24 + COUNT * (8 + 4 * ROWS * COLS)),
}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.frix"


@pytest.fixture(scope="module")
def frix(scratch):
    rng = np.random.default_rng(30)
    idx = KeyframeIndex(exclusion_horizon=0)
    for i in range(COUNT):
        idx.insert(2 * i, np.tile(rng.uniform(0.1, 4.0, (ROWS, COLS // 2)), 2))
    idx.save(scratch)
    return scratch.read_bytes()


def _load(path, raw: bytes):
    """Load ``raw``; a file that loads must be a usable index that saves back
    to ``raw`` with each descriptor's second half written as its first."""
    path.write_bytes(raw)
    try:
        idx = KeyframeIndex.load(path, exclusion_horizon=0)
    except FormatError:
        return None
    if len(idx):
        idx.save(path)
        rows, cols = idx.descriptor(idx.ids[0]).shape
        body = 24 + 8 * len(idx)
        descs = np.frombuffer(raw, dtype="<f4", offset=body).reshape(len(idx), rows, cols)
        assert path.read_bytes() == raw[:body] + np.tile(descs[..., : cols // 2], 2).tobytes()
        idx.match(np.ones((rows, cols)), 3, np.inf, np.inf)
    return idx


def _flip(raw: bytes, flips) -> bytes:
    out = bytearray(raw)
    for at, mask in flips:
        out[at] ^= mask
    return bytes(out)


def _flips(data, start, end):
    flip = st.tuples(st.integers(start, end - 1), st.integers(1, 255))
    return data.draw(st.lists(flip, min_size=1, max_size=8))


@st.composite
def _frix_shaped(draw):
    """A v2 header of small geometry and a body of exactly the length it asks for."""
    rows, cols, count = (draw(st.integers(0, 3)) for _ in range(3))
    size = count * (8 + 4 * rows * cols)
    body = draw(st.binary(min_size=size, max_size=size))
    return b"FRIX" + struct.pack("<IIIQ", 2, rows, cols, count) + body


def test_load_rejects_every_truncation(frix, scratch):
    assert len(_load(scratch, frix)) == COUNT
    for end in range(len(frix)):
        scratch.write_bytes(frix[:end])
        with pytest.raises(FormatError):
            KeyframeIndex.load(scratch)


@pytest.mark.parametrize("region", REGIONS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_load_survives_flipped_bytes(frix, scratch, region, data):
    _load(scratch, _flip(frix, _flips(data, *REGIONS[region])))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=512),
        st.binary(max_size=512).map(lambda b: b"FRIX" + b),
        _frix_shaped(),
        # an empty file of any geometry
        st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)).map(
            lambda rc: b"FRIX" + struct.pack("<IIIQ", 2, *rc, 0)
        ),
    )
)
def test_load_survives_random_bytes(scratch, raw):
    _load(scratch, raw)


# float32 bit patterns that are not finite: quiet and signalling NaNs of
# either sign, and both infinities
_NON_FINITE = [0x7FC00000, 0x7F800001, 0x7FBFFFFF, 0xFFC00001, 0xFF800001, 0x7F800000, 0xFF800000]
_FINITE = st.floats(width=32, allow_nan=False, allow_infinity=False).map(
    lambda v: int(np.array([v], dtype="<f4").view("<u4")[0])
)


def _records(values):
    return st.lists(st.lists(values, min_size=4, max_size=4), max_size=40).map(
        lambda recs: np.array(recs, dtype="<u4").reshape(-1, 4).tobytes()
    )


def _load_bin(path, raw: bytes):
    """Load ``raw`` as a KITTI scan; whole records must come back as exactly
    the finite ones, in file order, with the others counted."""
    path.write_bytes(raw)
    try:
        cloud = load_kitti_bin(path)
    except FormatError:
        assert len(raw) % 16 != 0
        return None
    assert isinstance(cloud, PointCloud)
    rec = np.frombuffer(raw, dtype="<f4").reshape(-1, 4)
    finite = [bool(np.isfinite(r).all()) for r in rec]
    want = np.array([r for r, ok in zip(rec.tolist(), finite) if ok]).reshape(-1, 4)
    np.testing.assert_array_equal(cloud.xyz, want[:, :3])
    if len(rec):
        np.testing.assert_array_equal(cloud.intensity, want[:, 3])
    assert cloud.dropped == finite.count(False)
    return cloud


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=400))
def test_kitti_bin_survives_random_bytes(scratch, raw):
    _load_bin(scratch.with_suffix(".bin"), raw)


@settings(max_examples=150, deadline=None)
@given(_records(_FINITE))
def test_kitti_bin_keeps_every_finite_record(scratch, raw):
    cloud = _load_bin(scratch.with_suffix(".bin"), raw)
    assert cloud.dropped == 0 and len(cloud) == len(raw) // 16


@settings(max_examples=200, deadline=None)
@given(_records(st.one_of(_FINITE, st.sampled_from(_NON_FINITE), st.integers(0, 2**32 - 1))))
def test_kitti_bin_drops_non_finite_records(scratch, raw):
    _load_bin(scratch.with_suffix(".bin"), raw)


# text parsers: tokens that parse as finite numbers, as non-finite ones,
# and as neither
_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
_FINITE_TEXT = _FLOAT.map(repr)
_NON_FINITE_TEXT = st.sampled_from(["nan", "-nan", "inf", "-Infinity", "1e999"])
_TOKENS = st.one_of(
    _FINITE_TEXT,
    _NON_FINITE_TEXT,
    st.integers(-3, 10**6).map(str),
    st.sampled_from(["", "x", "1.5", "3.0", "frame", "#", "Tr:", "²", "\xff"]),
)


def _text(rows, sep: str = " ") -> bytes:
    return "".join(sep.join(r) + "\n" for r in rows).encode("utf-8")


def _written(path, raw: bytes):
    path.write_bytes(raw)
    return path


def _parse_text(loader, path, raw: bytes):
    try:
        return loader(_written(path, raw))
    except FormatError:
        return None


@pytest.mark.parametrize("loader", [load_ascii_cloud, load_generic_poses, load_kitti_poses])
@settings(max_examples=100, deadline=None)
@given(
    raw=st.one_of(
        st.binary(max_size=400),
        st.text("0123456789.,;eE+-xnaif#:\t\n\r ²", max_size=300).map(str.encode),
        st.lists(st.lists(_TOKENS, max_size=14), max_size=12).map(_text),
        st.lists(st.lists(_TOKENS, max_size=14), max_size=12).map(lambda r: _text(r, ",")),
    )
)
# an infinite yaw, which must be refused before it reaches the rotation matrix
@example(raw=b"0.0 0.0 0.0 0.0 inf\n")
@example(raw=b"frame,x,y,z,yaw_deg\n3,1.0,2.0,0.0,-inf\n")
def test_text_parsers_survive_random_input(scratch, loader, raw):
    got = _parse_text(loader, scratch.with_suffix(".txt"), raw)
    if isinstance(got, list):  # a pose file: finite, in strictly increasing id order
        assert all(np.isfinite(p.matrix).all() for p in got)
        assert all(a.frame_id < b.frame_id for a, b in zip(got, got[1:]))


@settings(max_examples=100, deadline=None)
@given(cols=st.sampled_from([3, 4]), data=st.data())
def test_ascii_cloud_keeps_exactly_the_finite_rows(scratch, cols, data):
    value = st.one_of(_FINITE_TEXT, _NON_FINITE_TEXT)
    rows = data.draw(st.lists(st.lists(value, min_size=cols, max_size=cols), max_size=30))
    cloud = load_ascii_cloud(_written(scratch.with_suffix(".txt"), _text(rows, "\t")))
    vals = [[float(v) for v in r] for r in rows]
    want = np.array([r for r in vals if np.isfinite(r).all()]).reshape(-1, cols)
    np.testing.assert_array_equal(cloud.xyz, want[:, :3])
    if cols == 4 and len(want):
        np.testing.assert_array_equal(cloud.intensity, want[:, 3])
    assert cloud.dropped == len(rows) - len(want)


@settings(max_examples=60, deadline=None)
@given(
    ids=st.sets(st.integers(0, 10**6), max_size=20).map(sorted),
    width=st.sampled_from([4, 12]),
    as_float=st.booleans(),
    header=st.booleans(),
    data=st.data(),
)
def test_generic_poses_load_every_finite_row_in_order(scratch, ids, width, as_float, header, data):
    fields = st.lists(_FLOAT, min_size=width, max_size=width)
    rows = [data.draw(fields) for _ in ids]
    text = [["frame", "x", "y", "z", "yaw_deg"]] if header else []
    for fid, r in zip(ids, rows):
        text.append([f"{fid}.0" if as_float else str(fid)] + [repr(v) for v in r])
    poses = load_generic_poses(_written(scratch.with_suffix(".csv"), _text(text, ",")))
    assert [p.frame_id for p in poses] == ids
    for p, r in zip(poses, rows):
        if width == 4:
            np.testing.assert_array_equal(p.position, r[:3])
        else:
            np.testing.assert_array_equal(p.matrix[:3], np.reshape(r, (3, 4)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_FLOAT, min_size=12, max_size=12), max_size=20))
def test_kitti_poses_load_every_finite_row_in_order(scratch, rows):
    text = [[repr(v) for v in r] for r in rows]
    poses = load_kitti_poses(_written(scratch.with_suffix(".txt"), _text(text)))
    assert [p.frame_id for p in poses] == list(range(len(rows)))
    for p, r in zip(poses, rows):
        np.testing.assert_array_equal(p.matrix[:3], np.reshape(r, (3, 4)))
