"""Image conversion (scaling, normalization, bilinear resize) and file IO."""

import numpy as np
import pytest

from srfe.errors import FeatureFileError
from srfe.features import (
    FeatureImage,
    FeatureMatrix,
    bilinear_resize,
    read_feature_file,
    to_feature_image,
    write_feature_file,
)


def feat(kind, values):
    return FeatureMatrix(kind=kind, values=np.asarray(values, dtype=np.float32),
                         frame_hop_seconds=512 / 22050)


class TestToFeatureImage:
    def test_constant_matrix_maps_to_half(self):
        img = to_feature_image(feat("chroma_stft", np.full((12, 40), 0.7)))
        assert img.values.shape == (128, 216)
        np.testing.assert_allclose(img.values, 0.5, atol=1e-7)

    def test_full_range_identity_when_already_canonical(self):
        rng = np.random.default_rng(5)
        values = rng.random((128, 216)).astype(np.float32)
        values[0, 0] = 0.0
        values[-1, -1] = 1.0
        img = to_feature_image(feat("mfcc", values))
        np.testing.assert_allclose(img.values, values, atol=1e-6)

    def test_min_max_mapped_to_0_and_1(self):
        values = np.linspace(-3.0, 7.0, 128 * 216).reshape(128, 216)
        img = to_feature_image(feat("mfcc", values))
        assert img.values.min() == pytest.approx(0.0, abs=1e-7)
        assert img.values.max() == pytest.approx(1.0, abs=1e-7)

    def test_mel_uses_db_scale(self):
        values = np.ones((128, 216), dtype=np.float32)
        values[60:70, :] = 1000.0  # 30 dB above the rest
        img = to_feature_image(feat("mel", values))
        # In dB the two levels are exactly min and max -> 0 and 1.
        assert set(np.round(np.unique(img.values), 6)) <= {0.0, 1.0}

    def test_row_interpolation_weights(self):
        # 12 source rows -> 128 output rows on the corner-aligned grid.
        column = np.arange(12, dtype=np.float64)
        values = np.tile(column[:, None], (1, 216))
        resized = bilinear_resize(values, 128, 216)
        for i in [0, 17, 64, 100, 127]:
            pos = i * 11.0 / 127.0
            lo = int(np.floor(pos))
            frac = pos - lo
            expected = column[lo] * (1 - frac) + column[min(lo + 1, 11)] * frac
            assert resized[i, 0] == pytest.approx(expected, rel=1e-12)

    def test_resize_output_within_convex_hull(self):
        rng = np.random.default_rng(6)
        values = rng.random((20, 50))
        resized = bilinear_resize(values, 128, 216)
        assert resized.min() >= values.min() - 1e-12
        assert resized.max() <= values.max() + 1e-12

    @pytest.mark.parametrize("kind,rows", [
        ("mel", 128), ("mfcc", 20), ("cyclic_tempogram", 64),
        ("chroma_stft", 12), ("chroma_cqt", 12), ("chroma_cens", 12),
    ])
    def test_every_kind_lands_in_unit_interval(self, kind, rows):
        rng = np.random.default_rng(7)
        values = rng.random((rows, 216)).astype(np.float32)
        if kind == "mfcc":
            values = values * 40 - 20
        img = to_feature_image(feat(kind, values))
        assert img.values.shape == (128, 216)
        assert img.values.min() >= 0.0
        assert img.values.max() <= 1.0
        assert img.kind == kind

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            to_feature_image(feat("mel", np.zeros((0, 0))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        values = np.ones((12, 40))
        values[3, 5] = bad
        values[7, 9] = np.nan
        with pytest.raises(ValueError, match="chroma_cqt feature matrix has 2 non-finite values"):
            to_feature_image(feat("chroma_cqt", values))


class TestFeatureFile:
    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(9)
        img = FeatureImage(values=rng.random((128, 216)).astype(np.float32), kind="chroma_cqt")
        path = tmp_path / "x.srf"
        write_feature_file(img, path)
        back = read_feature_file(path)
        np.testing.assert_array_equal(back.values, img.values)
        assert back.kind == "chroma_cqt"

    def test_truncated_file(self, tmp_path):
        img = FeatureImage(values=np.zeros((8, 8), dtype=np.float32))
        path = tmp_path / "x.srf"
        write_feature_file(img, path)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(FeatureFileError, match="bytes"):
            read_feature_file(path)

    def test_wrong_magic_named_in_error(self, tmp_path):
        img = FeatureImage(values=np.zeros((4, 4), dtype=np.float32))
        path = tmp_path / "x.srf"
        write_feature_file(img, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(FeatureFileError, match="magic"):
            read_feature_file(path)

    def test_bad_version(self, tmp_path):
        img = FeatureImage(values=np.zeros((4, 4), dtype=np.float32))
        path = tmp_path / "x.srf"
        write_feature_file(img, path)
        data = bytearray(path.read_bytes())
        data[4] = 9
        path.write_bytes(bytes(data))
        with pytest.raises(FeatureFileError, match="version"):
            read_feature_file(path)

    def test_bad_kind_code(self, tmp_path):
        img = FeatureImage(values=np.zeros((4, 4), dtype=np.float32))
        path = tmp_path / "x.srf"
        write_feature_file(img, path)
        data = bytearray(path.read_bytes())
        data[5] = 200
        path.write_bytes(bytes(data))
        with pytest.raises(FeatureFileError, match="kind"):
            read_feature_file(path)

    def test_header_too_short(self, tmp_path):
        path = tmp_path / "x.srf"
        path.write_bytes(b"SRF1")
        with pytest.raises(FeatureFileError, match="truncated"):
            read_feature_file(path)
