"""Shared containers for feature matrices and the fixed-size CNN input image."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FEATURE_KINDS = ("mel", "mfcc", "cyclic_tempogram", "chroma_stft", "chroma_cqt", "chroma_cens")

# Matrices get a floor before any log so silence stays finite.
LOG_FLOOR = 1e-10

IMAGE_HEIGHT = 128
IMAGE_WIDTH = 216


@dataclass
class FeatureMatrix:
    """2-D time-feature matrix: rows are the feature axis, columns are frames."""

    kind: str
    values: np.ndarray  # (rows, cols)
    frame_hop_seconds: float

    def __post_init__(self):
        if self.kind not in FEATURE_KINDS:
            raise ValueError(f"unknown feature kind {self.kind!r}")
        self.values = np.asarray(self.values)
        if self.values.ndim != 2:
            raise ValueError(f"feature matrix must be 2-D, got shape {self.values.shape}")

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]


@dataclass
class FeatureImage:
    """Normalized single-channel image the classifier consumes.

    values are float32 in [0, 1] with shape (height, width); kind records
    which feature the image was rendered from.
    """

    values: np.ndarray
    kind: str = field(default="mel")

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 2:
            raise ValueError(f"feature image must be 2-D, got shape {self.values.shape}")
        if self.kind not in FEATURE_KINDS:
            raise ValueError(f"unknown feature kind {self.kind!r}")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]
