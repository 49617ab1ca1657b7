"""Chroma map, STFT chromagram, constant-Q transform, CQT chroma, CENS."""

import numpy as np
import pytest

from srfe.audio import AudioClip
from srfe.dsp import PowerSpectrogram, StftConfig, power_spectrogram, stft
from srfe.features import (
    build_chroma_map,
    build_cqt_kernel,
    cens_chromagram,
    cqt,
    cqt_chromagram,
    fold_cqt_to_chroma,
    stft_chromagram,
)
from srfe.features.chroma import CQT_FMIN_C1, pitch_class_of

import synth

# Equal-tempered fourth octave, C4..B4.
C4 = 440.0 * 2.0 ** (-9.0 / 12.0)
OCTAVE_4 = [C4 * 2.0 ** (k / 12.0) for k in range(12)]


def dominant_class(chroma_map, freq, sr=22050, n_fft=2048):
    k = int(round(freq * n_fft / sr))
    return int(chroma_map.weights[:, k].argmax())


class TestChromaMap:
    def test_tuning_reference_is_class_9(self):
        cmap = build_chroma_map(22050, 2048)
        assert dominant_class(cmap, 440.0) == 9

    def test_c4_is_class_0(self):
        # 12*log2(261.63/440) + 9 = 0.0002... mod 12, i.e. class C.
        assert pitch_class_of(261.63) == pytest.approx(0.0, abs=0.01)
        cmap = build_chroma_map(22050, 2048)
        assert dominant_class(cmap, 261.63) == 0

    def test_octave_equivalence(self):
        cmap = build_chroma_map(22050, 2048)
        assert dominant_class(cmap, 880.0) == dominant_class(cmap, 440.0)

    def test_low_bins_unmapped(self):
        cmap = build_chroma_map(22050, 2048)
        freqs = np.arange(cmap.bins) * 22050 / 2048
        assert np.all(cmap.weights[:, freqs <= 20.0] == 0)
        assert np.all(cmap.weights >= 0)

    def test_bad_tuning(self):
        with pytest.raises(ValueError):
            build_chroma_map(22050, 2048, tuning_hz=0.0)

    def test_dominant_class_is_nearest_on_the_circle(self):
        cmap = build_chroma_map(22050, 2048)
        rng = np.random.default_rng(13)
        freqs = np.arange(cmap.bins) * 22050 / 2048
        for k in rng.integers(0, cmap.bins, 200):
            if freqs[k] <= 20.0:
                continue
            nearest = int(np.round(pitch_class_of(freqs[k]))) % 12
            assert int(cmap.weights[:, k].argmax()) == nearest


class TestStftChromagram:
    def test_pure_tone_clip(self):
        t = np.arange(3 * 22050) / 22050
        clip = AudioClip((0.5 * np.sin(2 * np.pi * 440.0 * t)).astype(np.float32), 22050)
        power = power_spectrogram(stft(clip, StftConfig()))
        chroma = stft_chromagram(power, build_chroma_map(22050, 2048))
        assert chroma.kind == "chroma_stft"
        interior = chroma.values[:, 4:-4]
        assert np.mean(interior.argmax(axis=0) == 9) >= 0.95

    def test_zero_power(self):
        power = PowerSpectrogram(np.zeros((4, 1025), np.float32), 2048, 512, 22050)
        chroma = stft_chromagram(power, build_chroma_map(22050, 2048))
        assert np.all(chroma.values == 0)

    def test_matches_double_loop_before_normalization(self):
        rng = np.random.default_rng(17)
        cmap = build_chroma_map(22050, 512)
        power = rng.random((5, 257)).astype(np.float32)
        ps = PowerSpectrogram(power, 512, 128, 22050)
        got = stft_chromagram(ps, cmap).values
        raw = np.zeros((12, 5))
        for p in range(12):
            for m in range(5):
                raw[p, m] = float(np.sum(cmap.weights[p].astype(np.float64) * power[m]))
        expected = raw / raw.max(axis=0, keepdims=True)
        np.testing.assert_allclose(got, expected, rtol=1e-5)

    def test_dimension_mismatch(self):
        power = PowerSpectrogram(np.zeros((4, 100), np.float32), 512, 128, 22050)
        with pytest.raises(ValueError):
            stft_chromagram(power, build_chroma_map(22050, 2048))


def cqt_loop(samples, kernel, hop):
    """Oracle: one complex product per bin, each kernel centred on sample m*hop."""
    half_max = kernel.max_length // 2
    xp = np.pad(samples.astype(np.float32), (half_max, half_max + kernel.max_length))
    n_frames = 1 + len(samples) // hop
    mags = np.empty((kernel.n_bins, n_frames), dtype=np.float32)
    for k, filt in enumerate(kernel.filters):
        start = half_max - len(filt) // 2
        frames = np.lib.stride_tricks.sliding_window_view(xp[start:], len(filt))[::hop]
        mags[k] = np.abs(frames[:n_frames] @ np.conjugate(filt))
    return mags


class TestCqt:
    @pytest.mark.parametrize(
        "n_bins, bins_per_octave, hop, n_samples",
        [
            (84, 12, 512, 3 * 22050),
            (80, 12, 512, 3 * 22050),  # short last octave
            (84, 24, 256, 3 * 22050),
            (84, 12, 512, None),  # just longer than the longest kernel
        ],
    )
    def test_matches_per_bin_loop_oracle(self, n_bins, bins_per_octave, hop, n_samples):
        kernel = build_cqt_kernel(22050, CQT_FMIN_C1, n_bins, bins_per_octave)
        n = kernel.max_length + 3 if n_samples is None else n_samples
        rng = np.random.default_rng(n_bins + bins_per_octave + hop)
        x = 0.3 * rng.standard_normal(n) + synth.tone(220.0, duration=n / synth.SR)[:n]
        got = cqt(AudioClip(x.astype(np.float32), 22050), kernel, hop)
        ref = cqt_loop(x, kernel, hop)
        assert got.shape == ref.shape and got.dtype == np.float32
        # float32 GEMMs that sum in another order: a tolerance from float32
        # rounding, relative to the largest magnitude.
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-5 * np.abs(ref).max())

    @pytest.mark.parametrize("n_bins, bins_per_octave", [(84, 12), (80, 12), (84, 24)])
    def test_octave_blocks_hold_centred_conjugate_kernels(self, n_bins, bins_per_octave):
        kernel = build_cqt_kernel(22050, CQT_FMIN_C1, n_bins, bins_per_octave)
        assert len(kernel.blocks) == -(-n_bins // bins_per_octave)
        for g, block in enumerate(kernel.blocks):
            lo = g * bins_per_octave
            group = kernel.filters[lo : lo + bins_per_octave]
            n_g = len(group[0])
            assert block.dtype == np.float32
            assert block.shape == (n_g, 2 * len(group))
            for j, filt in enumerate(group):
                expected = np.zeros(n_g, dtype=np.complex64)
                row = n_g // 2 - len(filt) // 2
                expected[row : row + len(filt)] = np.conjugate(filt)
                np.testing.assert_array_equal(block[:, 2 * j], expected.real)
                np.testing.assert_array_equal(block[:, 2 * j + 1], expected.imag)

    def test_kernel_geometry(self):
        kernel = build_cqt_kernel(22050)
        assert kernel.n_bins == 84
        ratios = kernel.center_frequencies[1:] / kernel.center_frequencies[:-1]
        np.testing.assert_allclose(ratios, 2.0 ** (1.0 / 12.0), rtol=1e-12)
        # Constant quality: length_k * f_k / sr is (nearly) constant.
        q = [len(f) * fk / 22050 for f, fk in zip(kernel.filters, kernel.center_frequencies)]
        assert max(q) / min(q) < 1.01
        assert len(kernel.filters[0]) > len(kernel.filters[-1])

    def test_tone_at_fmin_hits_bin_zero(self):
        clip = AudioClip(synth.tone(CQT_FMIN_C1, duration=3.0), synth.SR)
        mags = cqt(clip, build_cqt_kernel(22050), hop=512)
        interior = mags[:, 10:-10]
        assert np.mean(interior.argmax(axis=0) == 0) > 0.9

    def test_tone_one_octave_up_hits_bin_12(self):
        clip = AudioClip(synth.tone(2 * CQT_FMIN_C1, duration=3.0), synth.SR)
        mags = cqt(clip, build_cqt_kernel(22050), hop=512)
        interior = mags[:, 10:-10]
        assert np.mean(interior.argmax(axis=0) == 12) > 0.9

    def test_zero_signal(self):
        clip = AudioClip(np.zeros(2 * 22050, dtype=np.float32), 22050)
        mags = cqt(clip, build_cqt_kernel(22050), hop=512)
        assert np.all(mags == 0)

    def test_too_short_clip_rejected(self):
        kernel = build_cqt_kernel(22050)
        with pytest.raises(ValueError):
            cqt(AudioClip(np.zeros(1000, dtype=np.float32), 22050), kernel)

    def test_kernel_above_nyquist_rejected(self):
        with pytest.raises(ValueError):
            build_cqt_kernel(22050, fmin=200.0, n_bins=84)


class TestCqtChroma:
    def test_energy_in_bin_zero_maps_to_class_zero(self):
        mags = np.zeros((84, 3))
        mags[0] = 1.0
        chroma = cqt_chromagram(fold_cqt_to_chroma(mags))
        assert chroma.kind == "chroma_cqt"
        assert np.all(chroma.values.argmax(axis=0) == 0)

    def test_octave_bins_sum(self):
        mags = np.zeros((84, 1))
        mags[0] = 1.0
        mags[12] = 1.0
        raw = fold_cqt_to_chroma(mags)
        assert raw[0, 0] == pytest.approx(2.0)
        assert np.all(raw[1:, 0] == 0)

    def test_synthesized_a4(self):
        clip = AudioClip(synth.tone(440.0, duration=3.0), synth.SR)
        mags = cqt(clip, build_cqt_kernel(22050), hop=512)
        chroma = cqt_chromagram(fold_cqt_to_chroma(mags)).values
        interior = chroma[:, 4:-4]
        assert np.mean(interior.argmax(axis=0) == 9) >= 0.95


class TestCens:
    def test_threshold_quantization_single_column(self):
        raw = np.zeros((12, 1))
        raw[0, 0] = 0.3
        raw[1, 0] = 0.7
        out = cens_chromagram(raw).values[:, 0]
        assert out[0] == pytest.approx(0.75)  # passes 0.05, 0.1, 0.2
        assert out[1] == pytest.approx(1.0)  # passes all four
        assert np.all(out[2:] == 0.0)

    def test_all_zero_column_stays_zero(self):
        out = cens_chromagram(np.zeros((12, 7))).values
        assert np.all(out == 0)

    def test_constant_chroma_smoothing_is_identity(self):
        raw = np.tile(np.array([[0.5], [0.25], [0.25]] + [[0.0]] * 9), (1, 100))
        out = cens_chromagram(raw).values
        for col in out.T:
            np.testing.assert_allclose(col, out[:, 0], atol=1e-12)

    def test_quantized_levels_before_smoothing(self):
        rng = np.random.default_rng(23)
        raw = rng.random((12, 1))  # single column: smoothing is identity
        out = cens_chromagram(raw).values[:, 0]
        levels = np.round(out / 0.25) * 0.25
        np.testing.assert_allclose(out, levels, atol=1e-12)
        assert np.all((out >= 0) & (out <= 1))

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            cens_chromagram(np.array([[-0.1, 0.2]]))


class TestChromaPitchClassSweep:
    @pytest.mark.parametrize("semitone", range(12))
    def test_all_three_chroma_kinds_agree(self, semitone):
        from srfe.features.pipeline import extract_feature_matrices

        freq = OCTAVE_4[semitone]
        clip = AudioClip(synth.tone(freq, duration=5.0), synth.SR)
        mats = extract_feature_matrices(clip, ["chroma_stft", "chroma_cqt", "chroma_cens"])
        for kind in ("chroma_stft", "chroma_cqt", "chroma_cens"):
            interior = mats[kind].values[:, 6:-6]
            hit = np.mean(interior.argmax(axis=0) == semitone)
            assert hit >= 0.95, f"{kind} semitone {semitone}: {hit:.2f}"
