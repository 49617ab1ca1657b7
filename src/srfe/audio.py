"""Audio ingest: WAV decoding, downmixing, resampling, length standardization.

All clips are reduced to a single canonical in-memory form (mono float32 in
[-1, 1] plus a sample rate) before any feature extraction happens.  The WAV
reader is deliberately self-contained: it only understands RIFF/WAVE with
integer PCM (8/16/24/32 bit) or 32-bit IEEE float payloads, which covers the
material this toolkit consumes, and it reports precise errors for anything
else.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DecodeError, EmptyAudioError, UnsupportedFormatError

WAVE_FORMAT_PCM = 0x0001
WAVE_FORMAT_IEEE_FLOAT = 0x0003
WAVE_FORMAT_EXTENSIBLE = 0xFFFE
RESAMPLE_HALF_WIDTH = 32  # one-sided sinc support, in output-side zero crossings


@dataclass
class AudioClip:
    """Mono audio signal with its sample rate.

    samples are float32 amplitudes in [-1, 1]; sample_rate is in Hz.
    """

    samples: np.ndarray
    sample_rate: int
    source_path: str | None = field(default=None)

    def __len__(self) -> int:
        return len(self.samples)


def _read_chunks(data: bytes, path):
    """Yield (chunk_id, payload) pairs from the RIFF body of the file at path."""
    pos = 12
    while pos + 8 <= len(data):
        cid, size = struct.unpack_from("<4sI", data, pos)
        pos += 8
        if pos + size > len(data):
            raise DecodeError(f"{path}: chunk {cid!r} claims {size} bytes past end of file")
        yield cid, data[pos : pos + size]
        pos += size + (size & 1)  # chunks are word-aligned


def _decode_pcm(raw: bytes, bits: int) -> np.ndarray:
    """Integer PCM bytes -> float32 in [-1, 1], scaled by 2^(bits-1)."""
    if bits == 8:
        # 8-bit WAV is unsigned with a 128 offset
        x = np.frombuffer(raw, dtype=np.uint8).astype(np.float32)
        return (x - 128.0) / 128.0
    if bits == 16:
        x = np.frombuffer(raw, dtype="<i2").astype(np.float32)
        return x / 32768.0
    if bits == 24:
        b = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        x = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        x = (x ^ 0x800000) - 0x800000  # sign-extend 24 -> 32 bits
        return x.astype(np.float32) / 8388608.0
    if bits == 32:
        x = np.frombuffer(raw, dtype="<i4").astype(np.float64)
        return (x / 2147483648.0).astype(np.float32)
    raise UnsupportedFormatError(f"unsupported PCM bit depth: {bits}")


def load_wav(path) -> AudioClip:
    """Decode a RIFF/WAVE file into a mono AudioClip.

    Multi-channel input is downmixed by the per-sample arithmetic mean (mean
    rather than sum, so the [-1, 1] range survives without clipping).
    """
    with open(path, "rb") as fh:
        data = fh.read()

    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise DecodeError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    for cid, body in _read_chunks(data, path):
        if cid == b"fmt ":
            if len(body) < 16:
                raise DecodeError(f"{path}: fmt chunk too short ({len(body)} bytes)")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
            if fmt[0] == WAVE_FORMAT_EXTENSIBLE:
                if len(body) < 40:
                    raise DecodeError(f"{path}: extensible fmt chunk too short")
                sub = struct.unpack_from("<H", body, 24)[0]
                fmt = (sub,) + fmt[1:]
        elif cid == b"data":
            payload = body

    if fmt is None:
        raise DecodeError(f"{path}: missing fmt chunk")
    if payload is None:
        raise DecodeError(f"{path}: missing data chunk")

    tag, channels, sample_rate, _, _, bits = fmt
    if channels not in (1, 2):
        raise UnsupportedFormatError(f"{path}: {channels} channels (expected 1 or 2)")
    if sample_rate <= 0:
        raise DecodeError(f"{path}: invalid sample rate {sample_rate}")

    if tag == WAVE_FORMAT_PCM:
        if bits not in (8, 16, 24, 32):
            raise UnsupportedFormatError(f"{path}: {bits}-bit PCM not supported")
        frame_bytes = channels * (bits // 8)
        payload = payload[: len(payload) - len(payload) % frame_bytes]
        samples = _decode_pcm(payload, bits)
    elif tag == WAVE_FORMAT_IEEE_FLOAT:
        if bits != 32:
            raise UnsupportedFormatError(f"{path}: {bits}-bit float not supported")
        payload = payload[: len(payload) - len(payload) % (4 * channels)]
        samples = np.frombuffer(payload, dtype="<f4").astype(np.float32)
        n_bad = np.count_nonzero(~np.isfinite(samples))
        if n_bad:
            raise DecodeError(f"{path}: {n_bad} non-finite samples")
        samples = np.clip(samples, -1.0, 1.0)
    else:
        raise UnsupportedFormatError(f"{path}: codec tag 0x{tag:04x} is not PCM")

    if samples.size == 0:
        raise EmptyAudioError(f"{path}: data chunk holds no samples")

    if channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1).astype(np.float32)

    return AudioClip(samples=samples, sample_rate=int(sample_rate), source_path=str(path))


def write_wav(clip: AudioClip, path) -> None:
    """Debug dump as mono 16-bit PCM little-endian."""
    x = np.clip(np.round(clip.samples * 32768.0), -32768, 32767).astype("<i2")
    raw = x.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(raw),
        b"WAVE",
        b"fmt ",
        16,
        WAVE_FORMAT_PCM,
        1,
        clip.sample_rate,
        clip.sample_rate * 2,
        2,
        16,
        b"data",
        len(raw),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(raw)


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Band-limited resampling with a Hann-windowed sinc kernel, as a polyphase FIR.

    The kernel cutoff sits at min(input Nyquist, output Nyquist).  The kernel
    spans RESAMPLE_HALF_WIDTH *output-side* zero crossings per side; the
    input-side support widens by 1/ratio when downsampling.  With the rates in
    lowest terms, target/source = L/M, output i sits at input position i*M/L,
    so its fractional phase (i*M mod L)/L takes one of only L values: each
    phase's kernel row is built once and applied as one strided FIR.
    """
    for rate in (clip.sample_rate, target_rate):
        if isinstance(rate, bool) or not isinstance(rate, numbers.Integral) or rate <= 0:
            raise ValueError(f"sample rates must be positive integers, got {rate!r}")
    if target_rate == clip.sample_rate:
        return AudioClip(clip.samples, clip.sample_rate, clip.source_path)

    ratio = target_rate / clip.sample_rate
    n_out = int(round(len(clip.samples) * ratio))
    g = math.gcd(clip.sample_rate, target_rate)
    up, down = target_rate // g, clip.sample_rate // g  # L, M

    cutoff = min(1.0, ratio)  # 1.0 == input Nyquist
    support = RESAMPLE_HALF_WIDTH / cutoff  # input samples per side
    k = int(np.ceil(support))

    # Row r is the kernel of outputs r, r + L, r + 2L, ...; their input windows
    # start M samples apart.
    starts = np.arange(min(up, n_out)) * down  # r*M
    arg = np.arange(-k + 1, k + 1) - (starts % up / up)[:, None]  # (rows, 2k) signed distances
    taper = np.cos(0.5 * np.pi * arg / support)
    table = cutoff * np.sinc(cutoff * arg) * np.where(np.abs(arg) <= support, taper * taper, 0.0)

    x = np.pad(clip.samples.astype(np.float64), (k, k))
    windows = np.lib.stride_tricks.sliding_window_view(x, 2 * k)  # a view, no copy
    out = np.empty(n_out, dtype=np.float64)
    for r, row in enumerate(table):
        taps = windows[starts[r] // up + 1 :: down][: len(range(r, n_out, up))]
        out[r::up] = np.einsum("ij,j->i", taps, row)  # rows overlap, so @ skips BLAS and runs ~3x slower
    return AudioClip(out.astype(np.float32), int(target_rate), clip.source_path)


def pad_or_trim(clip: AudioClip, target_samples: int) -> AudioClip:
    """Zero-pad at the end or truncate at the end to exactly target_samples."""
    if target_samples <= 0:
        raise ValueError(f"target_samples must be positive, got {target_samples}")
    n = len(clip.samples)
    if n == target_samples:
        return clip
    if n < target_samples:
        samples = np.pad(clip.samples, (0, target_samples - n))
    else:
        samples = clip.samples[:target_samples]
    return AudioClip(samples.astype(np.float32), clip.sample_rate, clip.source_path)
