"""Binary parsers fed truncated, corrupted and random bytes: each returns a
value or raises FormatError, nothing else."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fresco.cloud import FormatError
from fresco.index import KeyframeIndex
from fresco.spectrum import descriptor_from_bytes, descriptor_to_bytes

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
        idx.insert(2 * i, rng.uniform(0.1, 4.0, (ROWS, COLS)))
    idx.save(scratch)
    return scratch.read_bytes()


def _load(path, raw: bytes):
    """Load ``raw``; a file that loads must be a usable index that saves back to ``raw``."""
    path.write_bytes(raw)
    try:
        idx = KeyframeIndex.load(path, exclusion_horizon=0)
    except FormatError:
        return None
    if len(idx):
        idx.save(path)
        assert path.read_bytes() == raw
        rows, cols = idx.descriptor(idx.ids[0]).shape
        if cols >= 2 and cols % 2 == 0:  # the shift search needs what Config requires
            idx.match(np.ones((rows, cols)), 3, np.inf, np.inf)
    return idx


def _parse_blob(raw: bytes):
    try:
        desc = descriptor_from_bytes(raw)
    except FormatError:
        return None
    assert desc.ndim == 2
    if np.isfinite(desc).all():  # a NaN payload need not survive float64
        assert descriptor_to_bytes(desc) == raw
    return desc


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


@st.composite
def _blob_shaped(draw):
    """A blob header of small geometry and a body of exactly the length it asks for."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    body = draw(st.binary(min_size=4 * rows * cols, max_size=4 * rows * cols))
    return b"FRSC" + struct.pack("<II", rows, cols) + body


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


def test_blob_rejects_every_truncation():
    blob = descriptor_to_bytes(np.random.default_rng(31).uniform(0.1, 4.0, (ROWS, COLS)))
    assert _parse_blob(blob) is not None
    for end in range(len(blob)):
        with pytest.raises(FormatError):
            descriptor_from_bytes(blob[:end])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_blob_survives_flipped_bytes(data):
    blob = descriptor_to_bytes(np.random.default_rng(31).uniform(0.1, 4.0, (ROWS, COLS)))
    _parse_blob(_flip(blob, _flips(data, 0, len(blob))))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=512),
        st.binary(max_size=512).map(lambda b: b"FRSC" + b),
        _blob_shaped(),
    )
)
def test_blob_survives_random_bytes(raw):
    _parse_blob(raw)
