"""Log-magnitude frequency image and its polar-unrolled descriptor.

The magnitude spectrum of the BEV image is invariant to cyclic translation
of the scene and rotates with it, so resampling the spectrum on polar rings
turns scene rotation into a circular column shift of the descriptor.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np
from scipy.ndimage import map_coordinates

from .cloud import FormatError

_MAGIC = b"FRSC"


def log_spectrum(image) -> np.ndarray:
    """log(1 + |DFT2|) of a square image, shifted so dc sits at (S/2, S/2).

    Accepts a BevImage or a bare 2D array.  The forward transform is
    unnormalized, so a constant image c maps to log(1 + c*S^2) at dc.
    """
    data = np.asarray(getattr(image, "data", image), dtype=np.float64)
    if data.ndim != 2 or data.shape[0] != data.shape[1]:
        raise ValueError("expected a square 2D image")
    return np.fft.fftshift(np.log1p(np.abs(np.fft.fft2(data))))


def polar_unroll(
    mag: np.ndarray,
    crop_size: int = 64,
    radial_bins: int = 32,
    angular_bins: int = 120,
) -> np.ndarray:
    """Resample a dc-centered spectrum onto polar rings by bilinear sampling.

    Row i holds radius (i+1) * (crop_size/2) / (radial_bins+1); column j holds
    angle j * 2*pi / angular_bins swept counterclockwise in the (row, col)
    plane.  The dc sample itself (radius 0) is excluded and radii stay inside
    the central crop, which keeps only the low-frequency band where the log
    has tamed the dc peak.  Each sample blends its four neighbouring pixels;
    positions outside the image read 0, so a ring past the last pixel centre
    blends the edge pixel with zero.

    Returns a (radial_bins, angular_bins) float array.
    """
    mag = np.asarray(mag, dtype=np.float64)
    if mag.ndim != 2 or mag.shape[0] != mag.shape[1]:
        raise ValueError("expected a square spectrum")
    size = mag.shape[0]
    if crop_size > size:
        raise ValueError(f"crop_size {crop_size} exceeds spectrum size {size}")
    if crop_size < 2 or crop_size % 2 != 0:
        raise ValueError("crop_size must be an even integer >= 2")
    if radial_bins < 1:
        raise ValueError("radial_bins must be positive")
    if angular_bins < 2 or angular_bins % 2 != 0:
        raise ValueError("angular_bins must be an even integer >= 2")
    center = size // 2
    radii = (np.arange(radial_bins) + 1.0) * (crop_size / 2.0) / (radial_bins + 1.0)
    theta = np.arange(angular_bins) * (2.0 * np.pi / angular_bins)
    rows = center + radii[:, None] * np.cos(theta)[None, :]
    cols = center + radii[:, None] * np.sin(theta)[None, :]
    return map_coordinates(mag, [rows, cols], order=1, mode="grid-constant", cval=0.0)


def descriptor_to_bytes(desc: np.ndarray) -> bytes:
    """Serialize a descriptor: magic, u32 row/column counts, row-major float32."""
    desc = np.asarray(desc)
    if desc.ndim != 2:
        raise ValueError("descriptor must be 2D")
    header = _MAGIC + struct.pack("<II", desc.shape[0], desc.shape[1])
    return header + np.ascontiguousarray(desc, dtype="<f4").tobytes()


def descriptor_from_bytes(buf: bytes) -> np.ndarray:
    if len(buf) < 12 or buf[:4] != _MAGIC:
        raise FormatError("not a descriptor blob: bad magic")
    rows, cols = struct.unpack("<II", buf[4:12])
    expect = 12 + 4 * rows * cols
    if len(buf) != expect:
        raise FormatError(f"descriptor blob length {len(buf)}, expected {expect}")
    data = np.frombuffer(buf, dtype="<f4", offset=12)
    if not np.isfinite(data).all():  # checked before the cast, which NaN payloads trip
        raise FormatError("descriptor blob has a non-finite value")
    return data.astype(np.float64).reshape(rows, cols)


def save_descriptor(desc: np.ndarray, path) -> None:
    Path(path).write_bytes(descriptor_to_bytes(desc))


def load_descriptor(path) -> np.ndarray:
    return descriptor_from_bytes(Path(path).read_bytes())
