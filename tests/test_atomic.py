"""Artifacts are written whole or not at all."""

import pytest

from srfe.atomic import atomic_write
from srfe.nn import ConvNet, load_checkpoint, save_checkpoint


class Interrupted(Exception):
    pass


def test_complete_write_replaces_the_file(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("old\n")
    with atomic_write(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_failure_mid_write_leaves_no_file(tmp_path):
    path = tmp_path / "out.bin"
    with pytest.raises(Interrupted):
        with atomic_write(path, "wb") as fh:
            fh.write(b"half")
            raise Interrupted
    assert list(tmp_path.iterdir()) == []


def test_failure_mid_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("complete\n")
    with pytest.raises(Interrupted):
        with atomic_write(path, newline="") as fh:
            fh.write("partial")
            raise Interrupted
    assert path.read_text() == "complete\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_checkpoint_that_fails_mid_write_leaves_nothing(tmp_path):
    model = ConvNet(4, 4, 2, seed=1, conv_filters=(2,), dense_units=2)
    path = tmp_path / "model.srnn"
    save_checkpoint(model, path)
    saved = path.read_bytes()
    # A name that cannot be encoded fails after the header is written.
    model.params["\ud800"] = model.params["fc/b"]
    with pytest.raises(UnicodeEncodeError):
        save_checkpoint(model, path)
    assert path.read_bytes() == saved
    assert [p.name for p in tmp_path.iterdir()] == ["model.srnn"]
    load_checkpoint(path)

    path.unlink()
    with pytest.raises(UnicodeEncodeError):
        save_checkpoint(model, path)
    assert list(tmp_path.iterdir()) == []
