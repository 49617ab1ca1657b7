"""Windowing, FFT, STFT, and the power spectrogram.

The transforms are numpy's FFT; `fft` only adds the power-of-two length
check the spectral pipeline relies on.  `naive_dft` evaluates the transform
sum directly (no factorization) and is the reference the fast path is tested
against; keep it dumb.

Spectral conventions: analysis windows are periodic, signals are centered by
reflect-padding half a window on each side, and a clip of L samples at hop H
produces 1 + floor(L / H) frames.  Stored spectra are float32/complex64 while
the transforms themselves run in double precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WINDOW_KINDS = ("hann", "hamming", "rectangular")


@dataclass
class StftConfig:
    n_fft: int = 2048
    hop: int = 512
    window: str = "hann"

    def __post_init__(self):
        if self.n_fft < 1 or self.n_fft & (self.n_fft - 1):
            raise ValueError(f"n_fft must be a power of two, got {self.n_fft}")
        if not 0 < self.hop <= self.n_fft:
            raise ValueError(f"hop must be in (0, n_fft], got {self.hop}")
        if self.window not in WINDOW_KINDS:
            raise ValueError(f"unknown window {self.window!r}")


@dataclass
class ComplexSpectrogram:
    """STFT values, frame-major, bins 0..n_fft/2 only (real-input symmetry)."""

    values: np.ndarray  # (frames, n_fft//2 + 1) complex
    n_fft: int
    hop: int
    sample_rate: int

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def bins(self) -> int:
        return self.values.shape[1]


@dataclass
class PowerSpectrogram:
    values: np.ndarray  # (frames, bins) non-negative real
    n_fft: int
    hop: int
    sample_rate: int

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def bins(self) -> int:
        return self.values.shape[1]

    @property
    def bin_frequencies(self) -> np.ndarray:
        return np.arange(self.bins) * (self.sample_rate / self.n_fft)

    @property
    def hop_seconds(self) -> float:
        return self.hop / self.sample_rate


def make_window(kind: str, n: int) -> np.ndarray:
    """Periodic analysis window of length n (float64)."""
    if n < 1:
        raise ValueError(f"window length must be >= 1, got {n}")
    if kind == "rectangular":
        return np.ones(n)
    phase = 2.0 * np.pi * np.arange(n) / n
    if kind == "hann":
        return 0.5 - 0.5 * np.cos(phase)
    if kind == "hamming":
        return 0.54 - 0.46 * np.cos(phase)
    raise ValueError(f"unknown window {kind!r}")


def fft(signal, inverse: bool = False) -> np.ndarray:
    """DFT (or inverse DFT) of a power-of-two-length vector."""
    x = np.asarray(signal, dtype=np.complex128)
    if x.ndim != 1:
        raise ValueError("fft expects a 1-D vector")
    n = x.shape[0]
    if n < 1 or n & (n - 1):
        raise ValueError(f"fft length must be a power of two, got {n}")
    return np.fft.ifft(x) if inverse else np.fft.fft(x)


def naive_dft(signal, inverse: bool = False) -> np.ndarray:
    """Direct evaluation of the transform sum, O(N^2).

    This is the oracle the fast transform is checked against, so it stays a
    plain kernel-matrix product with no factorization tricks.
    """
    x = np.asarray(signal, dtype=np.complex128)
    if x.ndim != 1:
        raise ValueError("naive_dft expects a 1-D vector")
    n = x.shape[0]
    if n < 1:
        raise ValueError("naive_dft needs at least one sample")
    sign = 1.0 if inverse else -1.0
    k = np.arange(n)
    kernel = np.exp(sign * 2j * np.pi * np.outer(k, k) / n)
    y = kernel @ x
    return y / n if inverse else y


def stft(clip, cfg: StftConfig) -> ComplexSpectrogram:
    """Short-time transform of a clip, center-padded by reflection.

    Frame m covers padded samples [m*hop, m*hop + n_fft); only the
    non-negative frequency bins are kept.
    """
    x = np.asarray(clip.samples, dtype=np.float64)
    if x.shape[0] < cfg.n_fft:
        raise ValueError(
            f"clip has {x.shape[0]} samples, below the {cfg.n_fft}-sample window"
        )
    pad = cfg.n_fft // 2
    xp = np.pad(x, (pad, pad), mode="reflect")
    n_frames = 1 + (xp.shape[0] - cfg.n_fft) // cfg.hop

    stride = xp.strides[0]
    frames = np.lib.stride_tricks.as_strided(
        xp, shape=(n_frames, cfg.n_fft), strides=(cfg.hop * stride, stride), writeable=False
    )
    windowed = frames * make_window(cfg.window, cfg.n_fft)
    spectrum = np.fft.rfft(windowed, axis=1)
    return ComplexSpectrogram(
        values=spectrum.astype(np.complex64),
        n_fft=cfg.n_fft,
        hop=cfg.hop,
        sample_rate=clip.sample_rate,
    )


def power_spectrogram(spec: ComplexSpectrogram) -> PowerSpectrogram:
    """Elementwise squared magnitude of the spectrum."""
    v = spec.values
    power = (v.real.astype(np.float64) ** 2 + v.imag.astype(np.float64) ** 2).astype(np.float32)
    return PowerSpectrogram(
        values=power, n_fft=spec.n_fft, hop=spec.hop, sample_rate=spec.sample_rate
    )
