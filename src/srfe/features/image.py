"""Conversion of feature matrices to fixed-size images, plus their file format.

Every feature kind, whatever its native row count, becomes a 128x216 image
in [0, 1]: energies are mapped to a dB-like scale where that makes sense,
min-max normalized over the whole clip, and bilinearly resized.  One network
input shape serves all six features.

File format (little-endian): magic "SRF1", u8 version (1), u8 kind code,
u16 reserved (0), u32 rows, u32 cols, then rows*cols float32 values in
row-major order.
"""

from __future__ import annotations

import struct

import numpy as np

from ..atomic import atomic_write
from ..errors import FeatureFileError
from .types import FEATURE_KINDS, IMAGE_HEIGHT, IMAGE_WIDTH, LOG_FLOOR, FeatureImage, FeatureMatrix

MAGIC = b"SRF1"
VERSION = 1
_HEADER = struct.Struct("<4sBBHII")
_MAX_DIM = 1 << 20

# Feature kinds whose raw values are powers; converted to dB before scaling.
_DB_KINDS = frozenset({"mel"})


def bilinear_resize(values: np.ndarray, out_rows: int, out_cols: int) -> np.ndarray:
    """Bilinear resampling on the corner-aligned grid.

    Output sample (i, j) reads source position (i*(R-1)/(out_rows-1),
    j*(C-1)/(out_cols-1)), so equal sizes reproduce the input exactly and
    every output value is a convex combination of the four nearest inputs.
    """
    values = np.asarray(values, dtype=np.float64)
    in_rows, in_cols = values.shape

    def positions(n_out, n_in):
        if n_out == 1 or n_in == 1:
            return np.zeros(n_out)
        return np.arange(n_out) * ((n_in - 1) / (n_out - 1))

    r = positions(out_rows, in_rows)
    c = positions(out_cols, in_cols)
    r0 = np.minimum(np.floor(r).astype(np.int64), in_rows - 1)
    c0 = np.minimum(np.floor(c).astype(np.int64), in_cols - 1)
    r1 = np.minimum(r0 + 1, in_rows - 1)
    c1 = np.minimum(c0 + 1, in_cols - 1)
    fr = (r - r0)[:, None]
    fc = (c - c0)[None, :]

    top = values[np.ix_(r0, c0)] * (1 - fc) + values[np.ix_(r0, c1)] * fc
    bottom = values[np.ix_(r1, c0)] * (1 - fc) + values[np.ix_(r1, c1)] * fc
    return top * (1 - fr) + bottom * fr


def to_feature_image(feat: FeatureMatrix) -> FeatureImage:
    """Render a feature matrix as the canonical normalized image."""
    if feat.values.size == 0:
        raise ValueError("cannot render an empty feature matrix")
    n_bad = np.count_nonzero(~np.isfinite(feat.values))
    if n_bad:
        raise ValueError(f"{feat.kind} feature matrix has {n_bad} non-finite values")
    values = feat.values.astype(np.float64)
    if feat.kind in _DB_KINDS:
        values = 10.0 * np.log10(values + LOG_FLOOR)

    lo = values.min()
    hi = values.max()
    if hi > lo:
        values = (values - lo) / (hi - lo)
    else:
        values = np.full_like(values, 0.5)

    resized = bilinear_resize(values, IMAGE_HEIGHT, IMAGE_WIDTH)
    return FeatureImage(values=np.clip(resized, 0.0, 1.0).astype(np.float32), kind=feat.kind)


def write_feature_file(img: FeatureImage, path) -> None:
    kind_code = FEATURE_KINDS.index(img.kind)
    header = _HEADER.pack(MAGIC, VERSION, kind_code, 0, img.height, img.width)
    with atomic_write(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(img.values, dtype="<f4").tobytes())


def read_feature_file(path) -> FeatureImage:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise FeatureFileError(f"{path}: truncated header ({len(data)} bytes)")
    magic, version, kind_code, _, rows, cols = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise FeatureFileError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise FeatureFileError(f"{path}: unsupported version {version}")
    if kind_code >= len(FEATURE_KINDS):
        raise FeatureFileError(f"{path}: unknown kind code {kind_code}")
    if not 0 < rows <= _MAX_DIM or not 0 < cols <= _MAX_DIM:
        raise FeatureFileError(f"{path}: implausible dimensions {rows}x{cols}")
    expected = _HEADER.size + rows * cols * 4
    if len(data) != expected:
        raise FeatureFileError(f"{path}: expected {expected} bytes, found {len(data)}")
    values = np.frombuffer(data, dtype="<f4", offset=_HEADER.size).reshape(rows, cols)
    return FeatureImage(values=values.copy(), kind=FEATURE_KINDS[kind_code])
