"""Signal synthesis helpers shared by the tests.

All generators return float32 signals in [-1, 1] at the requested rate.
`build_corpus` renders the five-class ranking corpus to WAV files plus a
dataset-style CSV manifest: the classes differ strongly in spectral content
while their pitch-class content is deliberately uninformative (random
frequencies, broadband noise), and a low noise floor keeps energy-normalized
chroma frames from encoding the temporal envelope.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

from srfe.audio import AudioClip, write_wav

SR = 22050

# (class name, generator key); class ids are the list positions.
CORPUS_CLASSES = ["tone", "noise_burst", "chirp", "am_noise", "clicks"]

NOISE_FLOOR = 0.02


def wav_bytes(payload: bytes, fmt_tag=1, channels=1, sample_rate=44100, bits=16) -> bytes:
    """A RIFF/WAVE file around a raw payload (fmt_tag 1 is PCM, 3 is float)."""
    block = channels * (bits // 8)
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, fmt_tag, channels, sample_rate, sample_rate * block, block, bits,
        b"data", len(payload),
    )
    return header + payload


def time_axis(duration: float, sr: int = SR) -> np.ndarray:
    return np.arange(int(round(duration * sr))) / sr


def tone(freq: float, duration: float = 5.0, amp: float = 0.5, sr: int = SR) -> np.ndarray:
    t = time_axis(duration, sr)
    return (amp * np.sin(2 * np.pi * freq * t)).astype(np.float32)


def chirp(f0: float, f1: float, duration: float = 5.0, amp: float = 0.5, sr: int = SR) -> np.ndarray:
    t = time_axis(duration, sr)
    phase = 2 * np.pi * (f0 * t + (f1 - f0) * t * t / (2 * duration))
    return (amp * np.sin(phase)).astype(np.float32)


def click_train(bpm: float, duration: float = 5.0, amp: float = 0.9, sr: int = SR) -> np.ndarray:
    x = np.zeros(int(round(duration * sr)), dtype=np.float32)
    period = 60.0 / bpm
    decay = amp * np.exp(-np.arange(32) / 8.0).astype(np.float32)
    k = 0
    while k * period < duration:
        s = int(round(k * period * sr))
        if s + 32 <= len(x):
            x[s : s + 32] = decay
        k += 1
    return x


def noise_bursts(rng: np.random.Generator, duration: float = 5.0, amp: float = 0.5, sr: int = SR) -> np.ndarray:
    n = int(round(duration * sr))
    x = np.zeros(n, dtype=np.float32)
    n_bursts = int(rng.integers(4, 9))
    for _ in range(n_bursts):
        length = int(rng.uniform(0.1, 0.5) * sr)
        start = int(rng.integers(0, max(1, n - length)))
        x[start : start + length] = amp * rng.standard_normal(length).astype(np.float32) * 0.5
    return np.clip(x, -1.0, 1.0)


def am_noise(rng: np.random.Generator, duration: float = 5.0, amp: float = 0.5, sr: int = SR) -> np.ndarray:
    t = time_axis(duration, sr)
    mod_rate = rng.uniform(2.0, 16.0)
    envelope = (1.0 + 0.9 * np.sin(2 * np.pi * mod_rate * t)) / 1.9
    x = amp * 0.5 * rng.standard_normal(len(t)) * envelope
    return np.clip(x, -1.0, 1.0).astype(np.float32)


def _corpus_signal(class_name: str, rng: np.random.Generator, duration: float) -> np.ndarray:
    if class_name == "tone":
        return tone(float(np.exp(rng.uniform(np.log(200.0), np.log(4000.0)))), duration)
    if class_name == "noise_burst":
        return noise_bursts(rng, duration)
    if class_name == "chirp":
        f0 = float(rng.uniform(100.0, 2000.0))
        f1 = float(rng.uniform(2000.0, 8000.0))
        if rng.random() < 0.5:
            f0, f1 = f1, f0
        return chirp(f0, f1, duration)
    if class_name == "am_noise":
        return am_noise(rng, duration)
    if class_name == "clicks":
        return click_train(float(rng.uniform(60.0, 240.0)), duration)
    raise ValueError(class_name)


def build_corpus(
    root, clips_per_class: int = 40, duration: float = 5.0, seed: int = 1234
) -> Path:
    """Render the synthetic corpus; returns the manifest CSV path."""
    root = Path(root)
    audio_dir = root / "audio"
    meta_dir = root / "meta"
    audio_dir.mkdir(parents=True, exist_ok=True)
    meta_dir.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(seed)
    manifest_path = meta_dir / "manifest.csv"
    with open(manifest_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["filename", "fold", "target", "category", "esc10", "src_file", "take"])
        for class_id, class_name in enumerate(CORPUS_CLASSES):
            for i in range(clips_per_class):
                signal = _corpus_signal(class_name, rng, duration)
                floor = NOISE_FLOOR * rng.standard_normal(len(signal)).astype(np.float32)
                signal = np.clip(signal + floor, -1.0, 1.0)
                filename = f"{class_name}_{i:03d}.wav"
                write_wav(AudioClip(signal, SR), audio_dir / filename)
                writer.writerow([filename, 1 + i % 5, class_id, class_name, "False", filename, "A"])
    return manifest_path
