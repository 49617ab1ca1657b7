"""Output checks for the srfe benchmark.

Every check recomputes its expectation independently of the program: the
SRF1 reader follows the file format in the repository README, the mel band
centres come from the breakpoint mel formula, pitch classes and tempo bins
from their definitions, and the train/eval checks compare two code paths of
the program against each other.  A check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

KINDS = ("mel", "mfcc", "cyclic_tempogram", "chroma_stft", "chroma_cqt", "chroma_cens")
CHROMA_KINDS = ("chroma_stft", "chroma_cqt", "chroma_cens")
IMAGE_SHAPE = (128, 216)
SRF_HEADER = struct.Struct("<4sBBHII")

SAMPLE_RATE = 22050
N_FFT = 2048
N_MELS = 128
N_PITCH_CLASSES = 12
N_TEMPO_BINS = 64
REF_TEMPO_BPM = 60.0
CLASSES_PER_CATEGORY = 10
TRAIN_FRACTION = 0.8

# Frames dropped at each clip edge before the known-content checks.
EDGE_FRAMES = 8
PEAK_SHARE = 0.95
# Resampled 44.1 kHz clips must match the direct 22.05 kHz rendering this
# well, 0.1 s or more away from the clip edges.
MIN_RESAMPLE_SNR_DB = 60.0
RESAMPLE_MARGIN_S = 0.1


def read_srf(path, kind: str):
    """Parse one SRF1 feature file; returns (values, problems)."""
    data = Path(path).read_bytes()
    if len(data) < SRF_HEADER.size:
        return None, [f"{path}: {len(data)} bytes, shorter than the SRF1 header"]
    magic, version, code, reserved, rows, cols = SRF_HEADER.unpack_from(data)
    problems = []
    if magic != b"SRF1":
        problems.append(f"{path}: magic {magic!r}")
    if version != 1:
        problems.append(f"{path}: version {version}")
    if code >= len(KINDS) or KINDS[code] != kind:
        problems.append(f"{path}: kind code {code} in the {kind} directory")
    if reserved != 0:
        problems.append(f"{path}: reserved field {reserved}")
    if len(data) != SRF_HEADER.size + 4 * rows * cols:
        problems.append(f"{path}: {len(data)} bytes for a {rows}x{cols} image")
    if problems:
        return None, problems
    values = np.frombuffer(data, dtype="<f4", offset=SRF_HEADER.size).reshape(rows, cols)
    return values, []


def check_image(values, label: str) -> list[str]:
    if values.shape != IMAGE_SHAPE:
        return [f"{label}: shape {values.shape}, expected {IMAGE_SHAPE}"]
    if not np.all(np.isfinite(values)):
        return [f"{label}: non-finite values"]
    lo, hi = float(values.min()), float(values.max())
    if lo < 0.0 or hi > 1.0:
        return [f"{label}: values in [{lo}, {hi}], outside [0, 1]"]
    if hi == lo:
        return [f"{label}: constant image ({lo})"]
    return []


def load_feature_images(feature_dir, clips) -> tuple[dict, list[str]]:
    """Read and check all six images of every clip: {(stem, kind): values}."""
    images, problems = {}, []
    for clip in clips:
        for kind in KINDS:
            path = Path(feature_dir) / kind / f"{clip.stem}.srf"
            if not path.is_file():
                problems.append(f"{path}: missing")
                continue
            values, errors = read_srf(path, kind)
            problems += errors or check_image(values, str(path))
            if values is not None:
                images[clip.stem, kind] = values
    return images, problems


def check_feature_manifest(path, kind: str, clips) -> list[str]:
    """The sidecar lists every clip once, in manifest order, with its ids."""
    try:
        rows = [json.loads(line) for line in Path(path).read_text().splitlines()]
    except (OSError, ValueError) as exc:
        return [f"{path}: {exc}"]
    if len(rows) != len(clips):
        return [f"{path}: {len(rows)} rows for {len(clips)} clips"]
    problems = []
    for row, clip in zip(rows, clips):
        expected = {
            "source": clip.filename,
            "path": f"{clip.stem}.srf",
            "kind": kind,
            "class_id": clip.class_id,
            "category_id": clip.class_id // CLASSES_PER_CATEGORY,
        }
        wrong = {k: row.get(k) for k, v in expected.items() if row.get(k) != v}
        if wrong:
            problems.append(f"{path}: {clip.filename} has {wrong}, expected {expected}")
    return problems


def _row_to_source(row: int, n_source: int) -> float:
    """Source row a bilinear corner-aligned resize to 128 rows reads at `row`."""
    return row * (n_source - 1) / (IMAGE_SHAPE[0] - 1)


def _interior(values):
    return values[:, EDGE_FRAMES:-EDGE_FRAMES]


def pitch_class(freq_hz: float) -> int:
    """Nearest equal-tempered pitch class, C = 0, A4 = 440 Hz."""
    return int(round(12.0 * math.log2(freq_hz / 440.0) + 9.0)) % N_PITCH_CLASSES


def check_chroma_peak(values, expected_class: int, label: str) -> list[str]:
    rows = _interior(values).argmax(axis=0)
    classes = np.rint(_row_to_source(rows, N_PITCH_CLASSES)).astype(int) % N_PITCH_CLASSES
    share = float(np.mean(classes == expected_class))
    if share < PEAK_SHARE:
        found = np.bincount(classes, minlength=N_PITCH_CLASSES).argmax()
        return [f"{label}: pitch class {expected_class} peaks on {share:.0%} of interior frames "
                f"(mostly {found}), need {PEAK_SHARE:.0%}"]
    return []


def hz_to_mel(hz: float) -> float:
    """Breakpoint mel: 200/3 Hz per mel below 1 kHz, log steps of ln(6.4)/27 above."""
    if hz < 1000.0:
        return hz / (200.0 / 3.0)
    return 15.0 + math.log(hz / 1000.0) / (math.log(6.4) / 27.0)


def nearest_mel_band(freq_hz: float, sample_rate: int = SAMPLE_RATE, n_mels: int = N_MELS) -> int:
    """Band whose centre is nearest on the mel axis; centres split
    [0, sr/2] into n_mels + 1 equal mel steps."""
    step = hz_to_mel(sample_rate / 2.0) / (n_mels + 1)
    centres = step * np.arange(1, n_mels + 1)
    return int(np.abs(centres - hz_to_mel(freq_hz)).argmin())


def check_mel_peak(values, freq_hz: float, label: str) -> list[str]:
    strongest = int(_interior(values).mean(axis=1).argmax())
    expected = nearest_mel_band(freq_hz)
    if abs(strongest - expected) > 1:
        return [f"{label}: strongest mel row {strongest}, expected band {expected} +-1 for {freq_hz:.1f} Hz"]
    return []


def expected_tempo_bin(bpm: float) -> int:
    return int(math.floor(N_TEMPO_BINS * (math.log2(bpm / REF_TEMPO_BPM) % 1.0)))


def check_tempo_peak(values, bpm: float, label: str) -> list[str]:
    row = int(_interior(values).mean(axis=1).argmax())
    found = int(round(_row_to_source(row, N_TEMPO_BINS))) % N_TEMPO_BINS
    expected = expected_tempo_bin(bpm)
    distance = min((found - expected) % N_TEMPO_BINS, (expected - found) % N_TEMPO_BINS)
    if distance > 1:
        return [f"{label}: tempogram peaks in bin {found}, expected {expected} +-1 for {bpm} BPM"]
    return []


def check_known_content(images, clips, midi_to_hz) -> list[str]:
    """Tones peak at their pitch class and mel band; click trains at their tempo bin."""
    problems = []
    for clip in clips:
        if clip.family == "tone":
            freq = midi_to_hz(clip.params["midi"])
            for kind in CHROMA_KINDS:
                problems += check_chroma_peak(images[clip.stem, kind], clip.params["midi"] % 12, f"{clip.stem}/{kind}")
            problems += check_mel_peak(images[clip.stem, "mel"], freq, f"{clip.stem}/mel")
        elif clip.family == "clicks":
            problems += check_tempo_peak(
                images[clip.stem, "cyclic_tempogram"], clip.params["bpm"], f"{clip.stem}/cyclic_tempogram"
            )
    return problems


def check_duplicate(feature_dir, stem_a: str, stem_b: str) -> list[str]:
    problems = []
    for kind in KINDS:
        a = Path(feature_dir) / kind / f"{stem_a}.srf"
        b = Path(feature_dir) / kind / f"{stem_b}.srf"
        if a.is_file() and b.is_file() and a.read_bytes() != b.read_bytes():
            problems.append(f"{kind}: {stem_a} and {stem_b} hold the same clip but differ")
    return problems


def resample_snr_db(resampled, reference, rate: int = SAMPLE_RATE) -> float:
    margin = int(RESAMPLE_MARGIN_S * rate)
    n = min(len(resampled), len(reference))
    ref = np.asarray(reference[margin : n - margin], dtype=np.float64)
    err = np.asarray(resampled[margin : n - margin], dtype=np.float64) - ref
    return float(10.0 * np.log10(np.sum(ref * ref) / max(np.sum(err * err), 1e-300)))


def check_split(split: dict, clips) -> list[str]:
    """Disjoint, covering, and round(0.8 n) training clips per class."""
    train, val = split.get("train", []), split.get("validation", [])
    problems = []
    if set(train) & set(val):
        problems.append(f"split: {sorted(set(train) & set(val))} in both sets")
    if len(train) + len(val) != len(set(train) | set(val)):
        problems.append("split: a clip is listed twice")
    names = {clip.filename for clip in clips}
    if set(train) | set(val) != names:
        problems.append(f"split: covers {len(set(train) | set(val))} names, manifest has {len(names)}")
    per_class: dict[int, int] = {}
    for clip in clips:
        per_class[clip.class_id] = per_class.get(clip.class_id, 0) + 1
    train_set = set(train)
    for class_id, n in per_class.items():
        got = sum(1 for clip in clips if clip.class_id == class_id and clip.filename in train_set)
        if got != round(TRAIN_FRACTION * n):
            problems.append(f"split: class {class_id} has {got} training clips, expected round(0.8*{n})")
    return problems


def read_history(path) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def check_history(history: list[dict], epochs: int) -> list[str]:
    if len(history) != epochs:
        return [f"history: {len(history)} epochs, expected {epochs}"]
    bad = [row["epoch"] for row in history
           if not all(math.isfinite(row[k]) for k in ("train_loss", "val_loss"))]
    return [f"history: non-finite loss in epochs {bad}"] if bad else []


def check_report(report: dict, history: list[dict], n_val: int) -> list[str]:
    """Eval accuracy agrees with training's own validation pass at the
    restored (lowest val_loss) epoch, and the confusions are consistent."""
    problems = []
    cm = np.asarray(report["class_confusion"], dtype=np.int64)
    cat = np.asarray(report["category_confusion"], dtype=np.int64)
    if cm.sum() != n_val:
        problems.append(f"report: class confusion totals {cm.sum()}, {n_val} validation clips")
    k = CLASSES_PER_CATEGORY
    if cm.shape[0] % k or cat.shape != (cm.shape[0] // k,) * 2:
        problems.append(f"report: confusion shapes {cm.shape} and {cat.shape}")
    else:
        blocks = cm.reshape(cat.shape[0], k, cat.shape[0], k).sum(axis=(1, 3))
        if not np.array_equal(blocks, cat):
            problems.append("report: category confusion is not the block sums of the class confusion")
    accuracy = report["overall_accuracy"]
    if abs(accuracy - np.trace(cm) / max(n_val, 1)) > 1e-9:
        problems.append(f"report: accuracy {accuracy} but the confusion diagonal gives {np.trace(cm)}/{n_val}")
    if history:
        best = min(range(len(history)), key=lambda i: history[i]["val_loss"])
        val_acc = history[best]["val_acc"]
        if abs(val_acc - accuracy) > 1e-6:  # the history keeps six decimals
            problems.append(f"report: eval accuracy {accuracy:.6f}, history val_acc {val_acc:.6f} "
                            f"at its best epoch {best + 1}")
    return problems


def check_same_outputs(plain, traced) -> list[str]:
    """Tracing must not change what the program writes: every output file
    of the traced round is byte-identical to the untraced round's."""
    plain, traced = Path(plain), Path(traced)
    names = sorted(
        str(p.relative_to(plain)) for p in plain.rglob("*")
        if p.is_file() and p.suffix not in (".log",) and "trace" not in p.relative_to(plain).parts
    )
    differ = [n for n in names if not (traced / n).is_file() or (traced / n).read_bytes() != (plain / n).read_bytes()]
    return [f"traced round differs from the untraced one in {differ[:5]} ({len(differ)} files)"] if differ else []
