"""Spectrum magnitude, its invariances, and the polar resampling."""

import numpy as np
import pytest
from scipy.ndimage import map_coordinates

from fresco import synth
from fresco.bev import make_bev
from fresco.cloud import PointCloud
from fresco.spectrum import (
    FormatError,
    descriptor_from_bytes,
    descriptor_to_bytes,
    load_descriptor,
    log_spectrum,
    polar_unroll,
    save_descriptor,
)


def _dft_magnitude(img: np.ndarray) -> np.ndarray:
    """Oracle: explicit DFT matrix product, no fft call, dc shifted to center."""
    s = img.shape[0]
    k = np.arange(s)
    w = np.exp(-2j * np.pi * np.outer(k, k) / s)
    mag = np.abs(w @ img @ w)
    c = s // 2
    return np.roll(np.roll(mag, c, axis=0), c, axis=1)


def test_zero_image_zero_spectrum():
    assert not log_spectrum(np.zeros((16, 16))).any()


def test_constant_image_is_pure_dc():
    s, c = 16, 3.7
    spec = log_spectrum(np.full((s, s), c))
    assert spec[s // 2, s // 2] == pytest.approx(np.log1p(c * s * s), rel=1e-12)
    off_dc = spec.copy()
    off_dc[s // 2, s // 2] = 0.0
    assert np.abs(off_dc).max() < 1e-9


def test_matches_explicit_dft_oracle():
    rng = np.random.default_rng(12)
    img = rng.uniform(0, 10, (32, 32))
    want = np.log1p(_dft_magnitude(img))
    np.testing.assert_allclose(log_spectrum(img), want, rtol=1e-9, atol=1e-9)


def test_cyclic_shift_leaves_magnitude_unchanged():
    rng = np.random.default_rng(13)
    img = rng.uniform(0, 10, (32, 32))
    rolled = np.roll(np.roll(img, 7, axis=0), 3, axis=1)
    # oracle first: the explicit DFT agrees that magnitudes match
    a, b = _dft_magnitude(img), _dft_magnitude(rolled)
    assert np.abs(a - b).max() <= 1e-9 * np.abs(a).max()
    sa, sb = log_spectrum(img), log_spectrum(rolled)
    assert np.abs(sa - sb).max() <= 1e-9 * np.abs(sa).max()


def test_translation_invariance_on_real_scene():
    scene = synth.generate(synth.SceneSpec(seed=21, pillars=25, walls=5, rings=2))
    img = make_bev(scene, 80.0, 128).data
    base = log_spectrum(img)
    for shift in ((5, 11), (63, 1)):
        moved = log_spectrum(np.roll(np.roll(img, shift[0], axis=0), shift[1], axis=1))
        assert np.abs(moved - base).max() <= 1e-9 * np.abs(base).max()


def test_centro_symmetry():
    rng = np.random.default_rng(14)
    spec = log_spectrum(rng.uniform(0, 5, (64, 64)))
    inner = spec[1:, 1:]
    np.testing.assert_allclose(inner, inner[::-1, ::-1], rtol=1e-9, atol=1e-12)


def test_brightening_never_darkens_spectrum():
    rng = np.random.default_rng(15)
    img = rng.uniform(0, 5, (32, 32))
    assert (log_spectrum(2.5 * img) >= log_spectrum(img) - 1e-12).all()


def test_log_spectrum_rejects_non_square():
    with pytest.raises(ValueError):
        log_spectrum(np.zeros((8, 16)))


def test_polar_zero_in_zero_out():
    assert not polar_unroll(np.zeros((128, 128))).any()


def test_polar_rows_constant_for_radial_pattern():
    s, c = 128, 64
    i, j = np.mgrid[0:s, 0:s]
    r2 = (i - c) ** 2.0 + (j - c) ** 2.0
    desc = polar_unroll(5.0 + 1e-6 * r2)
    assert desc.std(axis=1).max() < 1e-6


def _bumps(p_row, p_col):
    """Smooth asymmetric test pattern evaluated at given offsets from center."""
    out = np.zeros_like(p_row, dtype=np.float64)
    for (mr, mc, s, a) in ((8.0, 3.0, 7.0, 2.0), (-12.0, 6.0, 9.0, 1.5), (2.0, -15.0, 8.0, 1.0)):
        out += a * np.exp(-((p_row - mr) ** 2 + (p_col - mc) ** 2) / (2 * s * s))
    return out


def test_pattern_rotation_becomes_column_shift():
    s, c = 128, 64
    i, j = np.mgrid[0:s, 0:s]
    pr, pc = (i - c).astype(float), (j - c).astype(float)
    base = polar_unroll(_bumps(pr, pc))
    for k in (1, 17, 40):
        a = k * 2.0 * np.pi / 120.0
        # pattern rotated counterclockwise in the (row, col) plane by a
        rr = np.cos(a) * pr + np.sin(a) * pc
        rc = -np.sin(a) * pr + np.cos(a) * pc
        turned = polar_unroll(_bumps(rr, rc))
        # bilinear resampling of the rotated pattern costs a few millis of
        # amplitude, so the match is close but not exact
        np.testing.assert_allclose(turned, np.roll(base, k, axis=1), atol=1e-2)


def test_descriptor_half_period_on_real_scene():
    scene = synth.generate(synth.SceneSpec(seed=22, pillars=30, walls=6, rings=1))
    desc = polar_unroll(log_spectrum(make_bev(scene, 80.0, 128)))
    assert np.abs(desc - np.roll(desc, 60, axis=1)).max() <= 1e-6


def _bilinear(img, rows, cols):
    """Oracle: the four-neighbour blend written out; outside the array reads 0."""
    r0 = np.floor(rows).astype(np.int64)
    c0 = np.floor(cols).astype(np.int64)
    fr, fc = rows - r0, cols - c0
    out = np.zeros(rows.shape)
    nr, nc = img.shape
    for dr, dc, w in (
        (0, 0, (1 - fr) * (1 - fc)),
        (0, 1, (1 - fr) * fc),
        (1, 0, fr * (1 - fc)),
        (1, 1, fr * fc),
    ):
        rr, cc = r0 + dr, c0 + dc
        ok = (rr >= 0) & (rr < nr) & (cc >= 0) & (cc < nc)
        out += w * np.where(ok, img[np.clip(rr, 0, nr - 1), np.clip(cc, 0, nc - 1)], 0.0)
    return out


@pytest.mark.parametrize("grid, crop, rings", [(128, 64, 32), (16, 16, 32)])
def test_polar_unroll_matches_bilinear_oracle(grid, crop, rings):
    scene = synth.generate(synth.SceneSpec(seed=23, pillars=25, walls=5, rings=2))
    spec = log_spectrum(make_bev(scene, 80.0, grid))
    # the sample grid polar_unroll documents
    radii = (np.arange(rings) + 1.0) * (crop / 2.0) / (rings + 1.0)
    theta = np.arange(120) * (2.0 * np.pi / 120)
    rows = grid // 2 + radii[:, None] * np.cos(theta)[None, :]
    cols = grid // 2 + radii[:, None] * np.sin(theta)[None, :]
    want = _bilinear(spec, rows, cols)
    np.testing.assert_allclose(polar_unroll(spec, crop, rings, 120), want, rtol=0, atol=1e-12)
    # scipy's "constant" mode reads 0 past the last pixel centre instead of
    # blending the edge pixel, which only the outermost rings of a full crop reach
    constant = map_coordinates(spec, [rows, cols], order=1, mode="constant", cval=0.0)
    assert (np.abs(constant - want).max() > 1e-12) == (crop == grid)


def test_polar_parameter_validation():
    spec = np.zeros((64, 64))
    with pytest.raises(ValueError):
        polar_unroll(spec, crop_size=65)
    with pytest.raises(ValueError):
        polar_unroll(spec, crop_size=66)
    with pytest.raises(ValueError):
        polar_unroll(spec, crop_size=7)
    with pytest.raises(ValueError):
        polar_unroll(spec, radial_bins=0)
    with pytest.raises(ValueError):
        polar_unroll(spec, angular_bins=121)


def test_blob_round_trip(tmp_path):
    rng = np.random.default_rng(16)
    desc = rng.uniform(0, 8, (32, 120)).astype(np.float32).astype(np.float64)
    back = descriptor_from_bytes(descriptor_to_bytes(desc))
    np.testing.assert_array_equal(back, desc)
    p = tmp_path / "d.frsc"
    save_descriptor(desc, p)
    np.testing.assert_array_equal(load_descriptor(p), desc)


def test_blob_rejects_bad_magic():
    with pytest.raises(FormatError, match="magic"):
        descriptor_from_bytes(b"XXXX" + b"\x00" * 20)


def test_blob_rejects_wrong_length():
    blob = descriptor_to_bytes(np.zeros((4, 6)))
    with pytest.raises(FormatError, match="length"):
        descriptor_from_bytes(blob[:-4])
    with pytest.raises(FormatError, match="length"):
        descriptor_from_bytes(blob + b"\x00")


@pytest.mark.parametrize("bits", [0x7FC00000, 0x7F800001, 0xFFBFFFFF, 0x7F800000, 0xFF800000])
def test_blob_rejects_non_finite_values_without_a_cast_warning(bits):
    blob = bytearray(descriptor_to_bytes(np.ones((2, 4))))
    blob[12 + 4 * 5 : 12 + 4 * 6] = np.array([bits], dtype="<u4").tobytes()
    # a RuntimeWarning from the float32 -> float64 cast would fail the test run
    with pytest.raises(FormatError, match="non-finite"):
        descriptor_from_bytes(bytes(blob))
