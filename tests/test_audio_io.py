"""WAV decode, downmix, resampling, and length standardization."""

import struct

import numpy as np
import pytest

from srfe.audio import RESAMPLE_HALF_WIDTH, AudioClip, load_wav, pad_or_trim, resample, write_wav
from srfe.dsp import naive_dft
from srfe.errors import DecodeError, EmptyAudioError, UnsupportedFormatError
from synth import wav_bytes


def write_file(tmp_path, data: bytes, name="clip.wav"):
    path = tmp_path / name
    path.write_bytes(data)
    return path


class TestLoadWav:
    def test_esc50_shaped_clip(self, tmp_path):
        n = 5 * 44100
        payload = np.zeros(n, dtype="<i2").tobytes()
        clip = load_wav(write_file(tmp_path, wav_bytes(payload)))
        assert len(clip) == 220500
        assert clip.sample_rate == 44100

    def test_all_zero_16bit_is_exact_silence(self, tmp_path):
        payload = np.zeros(1000, dtype="<i2").tobytes()
        clip = load_wav(write_file(tmp_path, wav_bytes(payload)))
        assert np.all(clip.samples == 0.0)

    def test_16bit_scaling_rule(self, tmp_path):
        t = np.arange(4410)
        sine = np.round(16384 * np.sin(2 * np.pi * 100 * t / 44100)).astype("<i2")
        clip = load_wav(write_file(tmp_path, wav_bytes(sine.tobytes())))
        peak = np.abs(clip.samples).max()
        assert abs(peak - 0.5) <= 1.0 / 32768.0

    @pytest.mark.parametrize("bits,dtype,scale", [(16, "<i2", 32768), (32, "<i4", 2147483648)])
    def test_integer_widths(self, tmp_path, bits, dtype, scale):
        values = np.array([0, scale // 2, -scale // 2, scale - 1], dtype=dtype)
        clip = load_wav(write_file(tmp_path, wav_bytes(values.tobytes(), bits=bits)))
        np.testing.assert_allclose(clip.samples, values.astype(np.float64) / scale, atol=1e-7)

    def test_24bit(self, tmp_path):
        values = [0, 8388607, -8388608, 4194304]
        raw = b"".join(struct.pack("<i", v)[:3] for v in values)
        clip = load_wav(write_file(tmp_path, wav_bytes(raw, bits=24)))
        np.testing.assert_allclose(
            clip.samples, np.array(values) / 8388608.0, atol=1e-6
        )

    def test_8bit_unsigned(self, tmp_path):
        raw = bytes([128, 255, 0, 192])
        clip = load_wav(write_file(tmp_path, wav_bytes(raw, bits=8)))
        np.testing.assert_allclose(clip.samples, [0.0, 127 / 128, -1.0, 0.5], atol=1e-6)

    def test_float32_payload(self, tmp_path):
        values = np.array([0.25, -0.5, 1.0, 0.0], dtype="<f4")
        clip = load_wav(write_file(tmp_path, wav_bytes(values.tobytes(), fmt_tag=3, bits=32)))
        np.testing.assert_allclose(clip.samples, values)

    def test_stereo_downmix_is_mean(self, tmp_path):
        left = np.array([1000, -2000, 3000], dtype="<i2")
        right = np.array([3000, -2000, -1000], dtype="<i2")
        interleaved = np.empty(6, dtype="<i2")
        interleaved[0::2] = left
        interleaved[1::2] = right
        clip = load_wav(write_file(tmp_path, wav_bytes(interleaved.tobytes(), channels=2)))
        expected = (left.astype(np.float64) + right) / 2 / 32768
        np.testing.assert_allclose(clip.samples, expected, atol=1e-7)

    def test_identical_channels_equal_mono(self, tmp_path):
        mono = np.array([123, -456, 789, 10000], dtype="<i2")
        stereo = np.repeat(mono, 2).astype("<i2")
        c_mono = load_wav(write_file(tmp_path, wav_bytes(mono.tobytes()), "m.wav"))
        c_stereo = load_wav(write_file(tmp_path, wav_bytes(stereo.tobytes(), channels=2), "s.wav"))
        np.testing.assert_array_equal(c_mono.samples, c_stereo.samples)

    def test_roundtrip_16bit_bit_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        raw = rng.integers(-32768, 32768, 2048, dtype=np.int64).astype("<i2")
        first = load_wav(write_file(tmp_path, wav_bytes(raw.tobytes()), "a.wav"))
        write_wav(first, tmp_path / "b.wav")
        second = load_wav(tmp_path / "b.wav")
        np.testing.assert_array_equal(first.samples, second.samples)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_float_samples_rejected(self, tmp_path, bad):
        values = np.full(100, 0.25, dtype="<f4")
        values[[10, 20]] = bad
        path = write_file(tmp_path, wav_bytes(values.tobytes(), fmt_tag=3, bits=32))
        with pytest.raises(DecodeError, match="2 non-finite samples"):
            load_wav(path)

    def test_malformed_header(self, tmp_path):
        with pytest.raises(DecodeError):
            load_wav(write_file(tmp_path, b"RIFX" + b"\x00" * 40))

    def test_truncated_chunk(self, tmp_path):
        data = wav_bytes(np.zeros(100, dtype="<i2").tobytes())
        with pytest.raises(DecodeError):
            load_wav(write_file(tmp_path, data[:50]))

    def test_non_pcm_codec(self, tmp_path):
        with pytest.raises(UnsupportedFormatError):
            load_wav(write_file(tmp_path, wav_bytes(b"\x00" * 16, fmt_tag=0x55)))  # mp3 tag

    def test_zero_length_payload(self, tmp_path):
        with pytest.raises(EmptyAudioError):
            load_wav(write_file(tmp_path, wav_bytes(b"")))


def resample_loop(samples, src, dst):
    """The windowed-sinc resampler written out one output sample at a time."""
    ratio = dst / src
    n_out = int(round(len(samples) * ratio))
    cutoff = min(1.0, ratio)
    support = RESAMPLE_HALF_WIDTH / cutoff
    k = int(np.ceil(support))
    x = np.pad(samples.astype(np.float64), (k, k))
    offs = np.arange(-k + 1, k + 1, dtype=np.float64)
    out = np.empty(n_out)
    for i in range(n_out):
        t = i / ratio  # output position in input samples
        base = int(np.floor(t))
        arg = offs - (t - base)
        taper = np.cos(0.5 * np.pi * arg / support)
        kernel = cutoff * np.sinc(cutoff * arg) * np.where(np.abs(arg) <= support, taper * taper, 0.0)
        out[i] = x[base + 1 : base + 1 + 2 * k] @ kernel
    return out.astype(np.float32)


class TestResample:
    def test_two_to_one_matches_loop_oracle_exactly(self):
        x = np.random.default_rng(1).normal(0, 0.3, 11025).astype(np.float32)
        out = resample(AudioClip(x, 44100), 22050)
        np.testing.assert_array_equal(out.samples, resample_loop(x, 44100, 22050))

    @pytest.mark.parametrize("src,dst", [(48000, 22050), (22050, 44100), (16000, 22050), (44100, 22051)])
    def test_other_rates_match_loop_oracle(self, src, dst):
        x = np.random.default_rng(2).normal(0, 0.3, src // 4).astype(np.float32)
        out = resample(AudioClip(x, src), dst)
        assert out.sample_rate == dst
        np.testing.assert_array_max_ulp(out.samples, resample_loop(x, src, dst), maxulp=1)

    @pytest.mark.parametrize("src,dst", [(44100, 22050), (48000, 22050), (22050, 44100), (44100, 22051)])
    @pytest.mark.parametrize("n", [1, 2, 3, 1000])  # 1 sample at 2:1 gives no output at all
    def test_short_inputs_match_loop_oracle(self, src, dst, n):
        x = np.random.default_rng(n).uniform(-1, 1, n).astype(np.float32)
        out = resample(AudioClip(x, src), dst).samples
        expected = resample_loop(x, src, dst)
        assert out.dtype == np.float32
        assert len(out) == len(expected) == int(round(n * dst / src))
        np.testing.assert_array_max_ulp(out, expected, maxulp=1)

    def test_exact_two_to_one_length(self):
        clip = AudioClip(np.zeros(220500, dtype=np.float32), 44100)
        out = resample(clip, 22050)
        assert len(out) == 110250
        assert out.sample_rate == 22050

    def test_identity(self):
        x = np.random.default_rng(0).normal(0, 0.1, 1000).astype(np.float32)
        clip = AudioClip(x, 22050)
        out = resample(clip, 22050)
        np.testing.assert_array_equal(out.samples, x)

    @staticmethod
    def bin_amplitude(clip: AudioClip, freq: float, duration=0.2):
        """Amplitude at a bin-centered frequency via the direct transform."""
        n = int(round(duration * clip.sample_rate))
        start = clip.sample_rate // 4
        seg = clip.samples[start : start + n].astype(np.float64)
        spectrum = naive_dft(seg)
        k = int(round(freq * n / clip.sample_rate))
        assert abs(freq * n / clip.sample_rate - k) < 1e-9, "frequency must be bin-centered"
        dominant = int(np.argmax(np.abs(spectrum[1 : n // 2]))) + 1
        return 2 * np.abs(spectrum[k]) / n, dominant == k

    def test_sine_survives_downsample(self):
        t = np.arange(2 * 44100) / 44100
        clip = AudioClip((0.5 * np.sin(2 * np.pi * 1000 * t)).astype(np.float32), 44100)
        out = resample(clip, 22050)
        a_in, _ = self.bin_amplitude(clip, 1000)
        a_out, dominant = self.bin_amplitude(out, 1000)
        assert dominant
        assert abs(a_out - a_in) / a_in < 0.01

    def test_up_down_preserves_content(self):
        t = np.arange(22050) / 22050
        clip = AudioClip((0.4 * np.sin(2 * np.pi * 2205 * t)).astype(np.float32), 22050)
        out = resample(resample(clip, 44100), 22050)
        a_in, _ = self.bin_amplitude(clip, 2205)
        a_out, dominant = self.bin_amplitude(out, 2205)
        assert dominant
        assert abs(a_out - a_in) / a_in < 0.01

    def test_bad_rate(self):
        clip = AudioClip(np.zeros(10, dtype=np.float32), 22050)
        with pytest.raises(ValueError):
            resample(clip, 0)

    @pytest.mark.parametrize("src,dst", [(22050, 22050.0), (22050, True), (22050, "44100"), (44100.0, 22050)])
    def test_non_integer_rate_rejected(self, src, dst):
        clip = AudioClip(np.zeros(10, dtype=np.float32), src)
        with pytest.raises(ValueError, match="positive integers"):
            resample(clip, dst)

    def test_numpy_integer_rates_accepted(self):
        clip = AudioClip(np.zeros(100, dtype=np.float32), np.int64(44100))
        assert len(resample(clip, np.int32(22050))) == 50


class TestPadOrTrim:
    def test_identity(self):
        clip = AudioClip(np.ones(110250, dtype=np.float32), 22050)
        assert pad_or_trim(clip, 110250) is clip

    def test_zero_pad_tail(self):
        clip = AudioClip(np.ones(100000, dtype=np.float32), 22050)
        out = pad_or_trim(clip, 110250)
        assert len(out) == 110250
        assert np.all(out.samples[100000:] == 0.0)
        assert np.all(out.samples[:100000] == 1.0)

    def test_truncate_tail(self):
        x = np.arange(120000, dtype=np.float32)
        out = pad_or_trim(AudioClip(x, 22050), 110250)
        np.testing.assert_array_equal(out.samples, x[:110250])

    def test_bad_target(self):
        with pytest.raises(ValueError):
            pad_or_trim(AudioClip(np.zeros(10, dtype=np.float32), 22050), 0)
