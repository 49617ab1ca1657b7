"""Pitch-class (chroma) features from the STFT and from a constant-Q transform.

Pitch classes are indexed 0..11 with C = 0, so the 440 Hz tuning reference
lands on class 9 (A).  Three variants share this convention:

  * chroma_stft  - power spectrogram bins weighted into classes by a fixed
                   map with a one-semitone Gaussian spread,
  * chroma_cqt   - constant-Q magnitudes folded across octaves,
  * chroma_cens  - the folded chroma made robust: per-frame L1 energy
                   normalization, coarse amplitude quantization, then a long
                   moving-average smoothing along time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dsp import PowerSpectrogram, make_window
from .types import FeatureMatrix

N_PITCH_CLASSES = 12

# Equal-tempered C1 relative to A4 = 440 Hz; the default first CQT bin.
CQT_FMIN_C1 = 440.0 * 2.0 ** (-45.0 / 12.0)

# Per-frame L1-normalized chroma values are quantized by how many of these
# thresholds they exceed (0.25 per threshold).
CENS_THRESHOLDS = (0.05, 0.1, 0.2, 0.4)
CENS_SMOOTH_FRAMES = 41


@dataclass
class ChromaMap:
    """Fixed linear map from FFT bins to the 12 pitch classes."""

    weights: np.ndarray  # (12, n_fft//2 + 1), non-negative
    tuning_hz: float

    @property
    def bins(self) -> int:
        return self.weights.shape[1]


def pitch_class_of(freq_hz, tuning_hz: float = 440.0):
    """Continuous pitch-class position in [0, 12), with C = 0."""
    return np.mod(12.0 * np.log2(np.asarray(freq_hz, dtype=np.float64) / tuning_hz) + 9.0, 12.0)


def build_chroma_map(sample_rate: int, n_fft: int, tuning_hz: float = 440.0) -> ChromaMap:
    """Weight matrix assigning each FFT bin to pitch classes.

    A bin's weight on class p follows a Gaussian (std = 1 semitone) in the
    circular semitone distance between p and the bin's continuous pitch
    class.  Bins at or below 20 Hz carry no weight; there is no meaningful
    pitch down there and the DC bin would otherwise blow up the log.
    """
    if tuning_hz <= 0:
        raise ValueError(f"tuning_hz must be positive, got {tuning_hz}")
    n_bins = n_fft // 2 + 1
    freqs = np.arange(n_bins) * (sample_rate / n_fft)
    weights = np.zeros((N_PITCH_CLASSES, n_bins))

    mapped = freqs > 20.0
    positions = pitch_class_of(freqs[mapped], tuning_hz)  # (n_mapped,)
    classes = np.arange(N_PITCH_CLASSES, dtype=np.float64)[:, None]
    dist = np.abs(classes - positions[None, :])
    dist = np.minimum(dist, N_PITCH_CLASSES - dist)  # circular semitone distance
    weights[:, mapped] = np.exp(-0.5 * dist * dist)
    return ChromaMap(weights=weights.astype(np.float32), tuning_hz=float(tuning_hz))


def _normalize_columns_max(values: np.ndarray) -> np.ndarray:
    peak = values.max(axis=0, keepdims=True)
    scale = np.where(peak > 0, peak, 1.0)
    return values / scale


def stft_chromagram(power: PowerSpectrogram, chroma_map: ChromaMap) -> FeatureMatrix:
    """Pitch-class energy per frame, each frame scaled to peak 1."""
    if chroma_map.bins != power.bins:
        raise ValueError(f"map has {chroma_map.bins} bins but spectrogram has {power.bins}")
    raw = chroma_map.weights.astype(np.float64) @ power.values.T.astype(np.float64)
    return FeatureMatrix(
        kind="chroma_stft",
        values=_normalize_columns_max(raw).astype(np.float32),
        frame_hop_seconds=power.hop_seconds,
    )


@dataclass
class CqtKernel:
    """Per-bin complex analysis kernels with constant frequency/bandwidth ratio."""

    filters: list[np.ndarray]  # complex64, one per bin, descending lengths
    center_frequencies: np.ndarray
    sample_rate: int
    fmin: float
    bins_per_octave: int

    @property
    def n_bins(self) -> int:
        return len(self.filters)

    @property
    def max_length(self) -> int:
        return len(self.filters[0])


def build_cqt_kernel(
    sample_rate: int,
    fmin: float = CQT_FMIN_C1,
    n_bins: int = 84,
    bins_per_octave: int = 12,
) -> CqtKernel:
    """Windowed complex exponentials, one per log-spaced frequency bin.

    Bin k sits at fmin * 2^(k / bins_per_octave) and spans
    N_k = ceil(Q * sr / f_k) samples with Q = 1 / (2^(1/bins_per_octave) - 1),
    so every bin resolves the same number of cycles.  Kernels are Hann
    windowed and scaled by the window sum, which puts a unit-amplitude
    sine at roughly magnitude 0.5 in its own bin.
    """
    if fmin <= 0:
        raise ValueError(f"fmin must be positive, got {fmin}")
    q = 1.0 / (2.0 ** (1.0 / bins_per_octave) - 1.0)
    centers = fmin * 2.0 ** (np.arange(n_bins) / bins_per_octave)
    if centers[-1] > sample_rate / 2.0:
        raise ValueError(
            f"top bin at {centers[-1]:.1f} Hz exceeds Nyquist {sample_rate / 2.0:.1f} Hz"
        )

    filters = []
    for f_k in centers:
        n_k = int(np.ceil(q * sample_rate / f_k))
        n = np.arange(n_k)
        window = make_window("hann", n_k)
        phase = np.exp(-2j * np.pi * f_k * (n - n_k / 2.0) / sample_rate)
        filters.append((window * phase / window.sum()).astype(np.complex64))

    return CqtKernel(
        filters=filters,
        center_frequencies=centers,
        sample_rate=sample_rate,
        fmin=float(fmin),
        bins_per_octave=bins_per_octave,
    )


def cqt(clip, kernel: CqtKernel, hop: int = 512) -> np.ndarray:
    """Constant-Q magnitudes, shape (n_bins, frames).

    Frame m is centered at sample m*hop; each bin correlates its own kernel
    against the window of matching length around that point (zero padding at
    the clip edges).
    """
    x = np.asarray(clip.samples, dtype=np.float32)
    if x.shape[0] < kernel.max_length:
        raise ValueError(
            f"clip has {x.shape[0]} samples, below the longest kernel "
            f"({kernel.max_length} samples)"
        )
    if clip.sample_rate != kernel.sample_rate:
        raise ValueError(
            f"clip rate {clip.sample_rate} differs from kernel rate {kernel.sample_rate}"
        )

    half_max = kernel.max_length // 2
    xp = np.pad(x, (half_max, half_max + kernel.max_length))
    n_frames = 1 + x.shape[0] // hop
    stride = xp.strides[0]

    mags = np.empty((kernel.n_bins, n_frames), dtype=np.float32)
    for k, filt in enumerate(kernel.filters):
        n_k = len(filt)
        start = half_max - n_k // 2
        frames = np.lib.stride_tricks.as_strided(
            xp[start:],
            shape=(n_frames, n_k),
            strides=(hop * stride, stride),
            writeable=False,
        )
        mags[k] = np.abs(frames @ np.conjugate(filt))
    return mags


def fold_cqt_to_chroma(cqt_mags: np.ndarray, bins_per_octave: int = 12) -> np.ndarray:
    """Sum constant-Q bins of the same pitch class across octaves (raw, unnormalized)."""
    cqt_mags = np.asarray(cqt_mags, dtype=np.float64)
    n_bins = cqt_mags.shape[0]
    folded = np.zeros((N_PITCH_CLASSES, cqt_mags.shape[1]))
    for start in range(0, n_bins, bins_per_octave):
        block = cqt_mags[start : start + bins_per_octave]
        folded[: block.shape[0]] += block
    return folded


def cqt_chromagram(cqt_chroma_raw: np.ndarray, frame_hop_seconds: float = 0.0) -> FeatureMatrix:
    """Constant-Q chroma, each frame of the raw folded chroma scaled to peak 1."""
    raw = np.asarray(cqt_chroma_raw, dtype=np.float64)
    return FeatureMatrix(
        kind="chroma_cqt",
        values=_normalize_columns_max(raw).astype(np.float32),
        frame_hop_seconds=frame_hop_seconds,
    )


def cens_chromagram(cqt_chroma_raw: np.ndarray, frame_hop_seconds: float = 0.0) -> FeatureMatrix:
    """Energy-normalized, quantized, smoothed chroma.

    Three stages over the raw (pre-normalization) folded chroma:
      1. each frame is divided by its L1 norm (all-zero frames stay zero),
      2. values are quantized to {0, 0.25, 0.5, 0.75, 1} by counting how many
         of the thresholds (0.05, 0.1, 0.2, 0.4) they strictly exceed,
      3. each row is smoothed with a 41-frame moving mean, truncated at the
         clip edges.
    """
    raw = np.asarray(cqt_chroma_raw, dtype=np.float64)
    if np.any(raw < 0):
        raise ValueError("CENS input must be non-negative chroma energy")

    totals = raw.sum(axis=0, keepdims=True)
    normalized = raw / np.where(totals > 0, totals, 1.0)

    quantized = np.zeros_like(normalized)
    for threshold in CENS_THRESHOLDS:
        quantized += normalized > threshold
    quantized *= 0.25

    smoothed = _moving_mean(quantized, CENS_SMOOTH_FRAMES)
    return FeatureMatrix(
        kind="chroma_cens",
        values=smoothed.astype(np.float32),
        frame_hop_seconds=frame_hop_seconds,
    )


def _moving_mean(values: np.ndarray, window: int) -> np.ndarray:
    """Centered moving mean along axis 1; the window shrinks at the edges."""
    n = values.shape[1]
    half = window // 2
    cum = np.concatenate(
        [np.zeros((values.shape[0], 1)), np.cumsum(values, axis=1)], axis=1
    )
    hi = np.minimum(np.arange(n) + half + 1, n)
    lo = np.maximum(np.arange(n) - half, 0)
    return (cum[:, hi] - cum[:, lo]) / (hi - lo)
