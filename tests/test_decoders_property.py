"""Property tests over the three file decoders: WAV, SRF1 feature files, SRNN checkpoints.

A valid file of each format is cut short at any length or has any one bit
flipped.  Reading it must then either decode or raise a SrfeError subclass
whose message names the file; no other exception may escape.  The files are
small, so the drawn positions cover a good share of their header bytes.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from srfe.audio import AudioClip, load_wav, write_wav
from srfe.errors import SrfeError
from srfe.features import FeatureImage, read_feature_file, write_feature_file
from srfe.nn import ConvNet, load_checkpoint, save_checkpoint


def _write_wav(path):
    samples = np.sin(np.arange(32) / 3.0).astype(np.float32) * 0.5
    write_wav(AudioClip(samples, 22050), path)


def _write_srf(path):
    values = np.random.default_rng(5).random((4, 6))
    write_feature_file(FeatureImage(values=values, kind="chroma_cqt"), path)


def _write_srnn(path):
    save_checkpoint(ConvNet(4, 4, 2, seed=5, conv_filters=(2,), dense_units=2), path)


DECODERS = {
    "wav": (_write_wav, load_wav),
    "srf": (_write_srf, read_feature_file),
    "srnn": (_write_srnn, load_checkpoint),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("decoders")
    files = {}
    for fmt, (write, read) in DECODERS.items():
        path = root / f"valid.{fmt}"
        write(path)
        read(path)  # the untouched file decodes
        files[fmt] = path.read_bytes()
    return root, files


def read_or_named_error(read, path):
    try:
        read(path)
    except SrfeError as exc:
        assert str(path) in str(exc), f"{type(exc).__name__} does not name the file: {exc}"


@pytest.mark.parametrize("fmt", DECODERS)
@given(data=st.data())
def test_truncated_file_decodes_or_names_itself(valid_files, fmt, data):
    root, files = valid_files
    valid = files[fmt]
    cut = data.draw(st.integers(0, len(valid) - 1), label="length")
    path = root / f"truncated.{fmt}"
    path.write_bytes(valid[:cut])
    read_or_named_error(DECODERS[fmt][1], path)


@pytest.mark.parametrize("fmt", DECODERS)
@given(data=st.data())
def test_bit_flipped_file_decodes_or_names_itself(valid_files, fmt, data):
    root, files = valid_files
    corrupt = bytearray(files[fmt])
    pos = data.draw(st.integers(0, len(corrupt) - 1), label="byte")
    corrupt[pos] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    path = root / f"flipped.{fmt}"
    path.write_bytes(bytes(corrupt))
    read_or_named_error(DECODERS[fmt][1], path)
