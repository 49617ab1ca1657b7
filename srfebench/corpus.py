"""Seeded, ESC-50-shaped inputs for the srfe benchmark.

Clips are mono 16-bit PCM WAV files, 5.0 s long, listed in a CSV manifest
with the ESC-50 columns.  The signal families are modelled on the five used
by the test corpus (tones, noise bursts, chirps, AM noise, click trains) but
live here, so a change to the tests cannot change the benchmark's inputs.

Every clip is described by parameters drawn from the seed before anything is
rendered, and tones, chirps and click trains are closed-form functions of
time.  The same clip can therefore be rendered at 44.1 kHz (ESC-50's format)
and at the 22.05 kHz working rate, and the resampler's output can be compared
with the direct rendering.

Tone pitches and click tempos come from fixed menus: every menu entry gives
the peak the feature checks expect, at both rates, so no seed can draw an
input whose expected answer is ambiguous.
"""

from __future__ import annotations

import csv
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CLIP_SECONDS = 5.0
WORKING_RATE = 22050

# ESC-50 class ids and names used by the workloads, and the signal family
# each class is rendered with.
CLASSES = {
    0: ("dog", "tone"),
    1: ("rooster", "noise_burst"),
    10: ("rain", "chirp"),
    20: ("crying_baby", "clicks"),
    21: ("sneezing", "tone"),
    30: ("door_wood_knock", "noise_burst"),
    40: ("helicopter", "am_noise"),
}
# MIDI notes A2..A6 (110-1760 Hz) and click tempos (BPM).  On every tempo
# here the expected cyclic-tempogram bin beats all others by at least 1.5x
# at 24 click phases, at both rates; tempos near a tie with their 3:2
# relative (68, 75, 92.3, 96 BPM) are left out.
TONE_MIDI = tuple(range(45, 94))
CLICK_BPM = (64.6, 66.0, 76.0, 80.75, 107.7, 120.0, 161.5)

# Families whose clips may end in digital silence, as padded ESC-50
# recordings do; tones and clicks stay whole so their checks see every frame.
SILENCE_FAMILIES = ("noise_burst", "chirp", "am_noise")

CSV_COLUMNS = ("filename", "fold", "target", "category", "esc10", "src_file", "take")


@dataclass(frozen=True)
class Clip:
    filename: str
    class_id: int
    family: str
    index: int
    params: dict = field(hash=False)

    @property
    def stem(self) -> str:
        return Path(self.filename).stem


def midi_to_hz(midi: float) -> float:
    return 440.0 * 2.0 ** ((midi - 69.0) / 12.0)


def draw_params(family: str, rng: np.random.Generator) -> dict:
    """Seeded description of one clip; rendering needs nothing else."""
    p: dict = {"amp": float(rng.uniform(0.3, 0.6))}
    if family == "tone":
        p["midi"] = int(rng.choice(TONE_MIDI))
        p["phase"] = float(rng.uniform(0.0, 2.0 * np.pi))
    elif family == "chirp":
        p["f0"], p["f1"] = (float(f) for f in np.exp(rng.uniform(np.log(100.0), np.log(8000.0), 2)))
    elif family == "clicks":
        p["bpm"] = float(rng.choice(CLICK_BPM))
        p["offset_s"] = float(rng.uniform(0.0, 60.0 / p["bpm"]))
    elif family == "am_noise":
        p["mod_hz"] = float(rng.uniform(2.0, 16.0))
    if family in SILENCE_FAMILIES and rng.random() < 0.5:
        p["silence_s"] = float(rng.uniform(0.5, 2.0))
    if family == "noise_burst":
        # Every burst starts before the silent tail, so no clip is all silence.
        latest = CLIP_SECONDS - p.get("silence_s", 0.0) - 0.1
        n = int(rng.integers(4, 9))
        p["bursts"] = [(float(rng.uniform(0.0, latest)), float(rng.uniform(0.1, 0.5))) for _ in range(n)]
    p["noise_seed"] = int(rng.integers(0, 2**31))
    return p


def render(clip: Clip, rate: int) -> np.ndarray:
    """The clip's float64 samples at `rate`, in [-1, 1]."""
    p = clip.params
    n = int(round(CLIP_SECONDS * rate))
    t = np.arange(n) / rate
    amp = p["amp"]
    if clip.family == "tone":
        x = amp * np.sin(2.0 * np.pi * midi_to_hz(p["midi"]) * t + p["phase"])
    elif clip.family == "chirp":
        f0, f1 = p["f0"], p["f1"]
        x = amp * np.sin(2.0 * np.pi * (f0 * t + (f1 - f0) * t * t / (2.0 * CLIP_SECONDS)))
    elif clip.family == "clicks":
        # Exponentially decaying clicks, 1.45 ms long with an 0.36 ms time
        # constant, one per beat from offset_s on.
        x = np.zeros(n)
        period = 60.0 / p["bpm"]
        tau, length = 8.0 / WORKING_RATE, 32.0 / WORKING_RATE
        for onset in np.arange(p["offset_s"], CLIP_SECONDS - length, period):
            lo = int(np.ceil(onset * rate))
            hi = int(np.ceil((onset + length) * rate))
            x[lo:hi] = amp * np.exp(-(t[lo:hi] - onset) / tau)
    else:
        noise = np.random.default_rng(p["noise_seed"]).standard_normal(n)
        if clip.family == "noise_burst":
            x = np.zeros(n)
            for start, dur in p["bursts"]:
                lo, hi = int(start * rate), int((start + dur) * rate)
                x[lo:hi] = 0.5 * amp * noise[lo:hi]
        else:  # am_noise
            envelope = (1.0 + 0.9 * np.sin(2.0 * np.pi * p["mod_hz"] * t)) / 1.9
            x = 0.5 * amp * noise * envelope
    if "silence_s" in p:
        x[int(round((CLIP_SECONDS - p["silence_s"]) * rate)) :] = 0.0
    return np.clip(x, -1.0, 1.0)


def write_wav_pcm16(samples: np.ndarray, rate: int, path) -> None:
    pcm = np.clip(np.round(samples * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(pcm.tobytes())


@dataclass
class Corpus:
    manifest: Path
    audio_dir: Path
    clips: list[Clip]
    duplicate: tuple[str, str] | None  # stems of one clip listed under two names


def make_clips(seed: int, per_class: int, classes) -> list[Clip]:
    """`per_class` clips for each of `classes`, then the first clip again
    under a second name."""
    clips = []
    for class_id in classes:
        family = CLASSES[class_id][1]
        for _ in range(per_class):
            index = len(clips)
            params = draw_params(family, np.random.default_rng([seed, index]))
            filename = f"{1 + index % 5}-{100000 + index}-A-{class_id}.wav"
            clips.append(Clip(filename, class_id, family, index, params))
    return clips + [renamed(clips[0], "-B-")]


def renamed(clip: Clip, take: str) -> Clip:
    """The same clip under the take letter `take` ("-B-")."""
    return Clip(clip.filename.replace("-A-", take), clip.class_id, clip.family, clip.index, clip.params)


def write_manifest(path, clips: list[Clip]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for clip in clips:
            fold = clip.filename.split("-", 1)[0]
            writer.writerow(
                [clip.filename, fold, clip.class_id, CLASSES[clip.class_id][0], "False", clip.stem, "A"]
            )


def build(root, clips: list[Clip], rate: int) -> Corpus:
    """Write the clips' WAV files at `rate` and their manifest under `root`.
    A clip listed twice is rendered once and copied byte for byte."""
    root = Path(root)
    audio_dir = root / "audio"
    audio_dir.mkdir(parents=True, exist_ok=True)
    first_name: dict[int, str] = {}
    duplicate = None
    for clip in clips:
        path = audio_dir / clip.filename
        if clip.index in first_name:
            path.write_bytes((audio_dir / first_name[clip.index]).read_bytes())
            duplicate = (Path(first_name[clip.index]).stem, clip.stem)
        else:
            write_wav_pcm16(render(clip, rate), rate, path)
            first_name[clip.index] = clip.filename
    manifest = root / "esc50.csv"
    write_manifest(manifest, clips)
    return Corpus(manifest=manifest, audio_dir=audio_dir, clips=clips, duplicate=duplicate)
