"""One-stop extraction of any subset of the six features from a single clip.

The STFT-derived features (mel, mfcc, cyclic_tempogram, chroma_stft) share
one spectrogram, and the constant-Q features (chroma_cqt, chroma_cens) share
one transform, so asking for several kinds costs little more than asking for
one.  Filter banks and kernels are cached per parameter set; they are
immutable, so sharing them across workers or threads is safe.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ..audio import AudioClip
from ..dsp import StftConfig, power_spectrogram, stft
from .chroma import (
    CQT_FMIN_C1,
    build_chroma_map,
    build_cqt_kernel,
    cens_chromagram,
    cqt,
    cqt_chromagram,
    fold_cqt_to_chroma,
    stft_chromagram,
)
from .image import to_feature_image
from .mel import build_mel_filterbank, mel_spectrogram, mfcc
from .rhythm import autocorrelation_tempogram, cyclic_tempogram, onset_envelope
from .types import FEATURE_KINDS, FeatureImage, FeatureMatrix

_STFT_KINDS = ("mel", "mfcc", "cyclic_tempogram", "chroma_stft")
_CQT_KINDS = ("chroma_cqt", "chroma_cens")


@dataclass(frozen=True)
class FeatureParams:
    """Extraction parameters; the defaults define the canonical pipeline."""

    sample_rate: int = 22050
    n_fft: int = 2048
    hop: int = 512
    window: str = "hann"
    n_mels: int = 128
    fmin: float = 0.0
    fmax: float | None = None
    n_mfcc: int = 20
    tempogram_win_frames: int = 192
    tempogram_hop_frames: int = 1
    n_cyclic_bins: int = 64
    ref_tempo_bpm: float = 60.0
    tuning_hz: float = 440.0
    cqt_fmin: float = CQT_FMIN_C1
    cqt_bins: int = 84
    bins_per_octave: int = 12


# Builders are looked up in this module, so a wrapper put here sees each build.
@functools.lru_cache(maxsize=None)
def _mel_bank(sample_rate, n_fft, n_mels, fmin, fmax):
    return build_mel_filterbank(sample_rate, n_fft, n_mels, fmin, fmax)


@functools.lru_cache(maxsize=None)
def _chroma_map(sample_rate, n_fft, tuning_hz):
    return build_chroma_map(sample_rate, n_fft, tuning_hz)


@functools.lru_cache(maxsize=None)
def _cqt_kernel(sample_rate, fmin, n_bins, bins_per_octave):
    return build_cqt_kernel(sample_rate, fmin, n_bins, bins_per_octave)


def extract_feature_matrices(
    clip: AudioClip, kinds, params: FeatureParams = FeatureParams()
) -> dict[str, FeatureMatrix]:
    """Compute the requested feature matrices for one clip."""
    kinds = list(kinds)
    for kind in kinds:
        if kind not in FEATURE_KINDS:
            raise ValueError(f"unknown feature kind {kind!r}")
    if clip.sample_rate != params.sample_rate:
        raise ValueError(
            f"clip rate {clip.sample_rate} differs from pipeline rate {params.sample_rate}; "
            "resample on ingest"
        )

    out: dict[str, FeatureMatrix] = {}

    if any(k in _STFT_KINDS for k in kinds):
        spec = stft(clip, StftConfig(n_fft=params.n_fft, hop=params.hop, window=params.window))
        power = power_spectrogram(spec)

        if any(k in ("mel", "mfcc", "cyclic_tempogram") for k in kinds):
            bank = _mel_bank(
                params.sample_rate, params.n_fft, params.n_mels, params.fmin, params.fmax
            )
            mel = mel_spectrogram(power, bank)
            if "mel" in kinds:
                out["mel"] = mel
            if "mfcc" in kinds:
                out["mfcc"] = mfcc(mel, params.n_mfcc)
            if "cyclic_tempogram" in kinds:
                onset = onset_envelope(mel)
                gram = autocorrelation_tempogram(
                    onset, params.tempogram_win_frames, params.tempogram_hop_frames
                )
                out["cyclic_tempogram"] = cyclic_tempogram(
                    gram,
                    frame_period_s=params.hop / params.sample_rate,
                    n_cyclic_bins=params.n_cyclic_bins,
                    ref_tempo_bpm=params.ref_tempo_bpm,
                    window_hop_frames=params.tempogram_hop_frames,
                )

        if "chroma_stft" in kinds:
            chroma_map = _chroma_map(params.sample_rate, params.n_fft, params.tuning_hz)
            out["chroma_stft"] = stft_chromagram(power, chroma_map)

    if any(k in _CQT_KINDS for k in kinds):
        kernel = _cqt_kernel(
            params.sample_rate, params.cqt_fmin, params.cqt_bins, params.bins_per_octave
        )
        raw = fold_cqt_to_chroma(cqt(clip, kernel, params.hop), params.bins_per_octave)
        hop_seconds = params.hop / params.sample_rate
        if "chroma_cqt" in kinds:
            out["chroma_cqt"] = cqt_chromagram(raw, hop_seconds)
        if "chroma_cens" in kinds:
            out["chroma_cens"] = cens_chromagram(raw, hop_seconds)

    return out


def extract_feature_images(
    clip: AudioClip, kinds, params: FeatureParams = FeatureParams()
) -> dict[str, FeatureImage]:
    """Feature matrices rendered as canonical 128x216 images."""
    matrices = extract_feature_matrices(clip, kinds, params)
    return {kind: to_feature_image(mat) for kind, mat in matrices.items()}
