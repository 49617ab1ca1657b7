"""Checkpoint and history files.

Checkpoint layout (little-endian): magic "SRNN", u8 version, u32 tensor
count, then per tensor: u16 name length, utf-8 name, u8 rank, rank u32
dims, float32 data.  An extra "meta/arch" tensor records the architecture
(input dims, class count, dense width, dropout rate, conv widths) so a
model can be rebuilt from the file alone.

History is a plain CSV: epoch, train_loss, train_acc, val_loss, val_acc, lr.
"""

from __future__ import annotations

import csv
import math
import os
import struct

import numpy as np

from ..errors import CheckpointError
from .model import ConvNet
from .train import TrainHistory

MAGIC = b"SRNN"
VERSION = 1
_META_KEY = "meta/arch"


def _arch_vector(model: ConvNet) -> np.ndarray:
    return np.asarray(
        [
            model.input_height,
            model.input_width,
            model.n_classes,
            model.dense_units,
            model.dropout_rate,
            len(model.conv_filters),
            *model.conv_filters,
        ],
        dtype=np.float32,
    )


def save_checkpoint(model: ConvNet, path) -> None:
    tensors: dict[str, np.ndarray] = {_META_KEY: _arch_vector(model)}
    tensors.update(model.params)
    tensors.update(model.running)

    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<B", VERSION))
        fh.write(struct.pack("<I", len(tensors)))
        for name, value in tensors.items():
            encoded = name.encode("utf-8")
            arr = np.ascontiguousarray(value, dtype="<f4")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def _read_exact(fh, n: int, path) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointError(f"{path}: truncated checkpoint")
    return data


def load_checkpoint(path) -> ConvNet:
    tensors: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        if _read_exact(fh, 4, path) != MAGIC:
            raise CheckpointError(f"{path}: bad magic, expected {MAGIC!r}")
        version = struct.unpack("<B", _read_exact(fh, 1, path))[0]
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        count = struct.unpack("<I", _read_exact(fh, 4, path))[0]
        for _ in range(count):
            name_len = struct.unpack("<H", _read_exact(fh, 2, path))[0]
            name = _read_exact(fh, name_len, path).decode("utf-8")
            rank = struct.unpack("<B", _read_exact(fh, 1, path))[0]
            dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, path))
            need, left = 4 * math.prod(dims), file_size - fh.tell()
            if need > left:
                raise CheckpointError(
                    f"{path}: tensor {name!r} of shape {dims} needs {need} bytes, {left} left"
                )
            data = _read_exact(fh, need, path)
            tensors[name] = np.frombuffer(data, dtype="<f4").reshape(dims).copy()

    if _META_KEY not in tensors:
        raise CheckpointError(f"{path}: missing {_META_KEY!r} tensor")
    meta = tensors.pop(_META_KEY)
    if meta.size < 6:
        raise CheckpointError(f"{path}: malformed {_META_KEY!r} tensor")
    n_conv = int(meta[5])
    if meta.size != 6 + n_conv:
        raise CheckpointError(f"{path}: malformed {_META_KEY!r} tensor")

    arch = {
        "input_height": int(meta[0]),
        "input_width": int(meta[1]),
        "n_classes": int(meta[2]),
        "dense_units": int(meta[3]),
        "dropout_rate": float(meta[4]),
        "conv_filters": tuple(int(f) for f in meta[6 : 6 + n_conv]),
    }
    try:
        return ConvNet.from_state(arch, tensors)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc


def write_history_csv(history: TrainHistory, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "train_acc", "val_loss", "val_acc", "lr"])
        for i in range(history.epochs):
            writer.writerow(
                [
                    i + 1,
                    f"{history.train_loss[i]:.6f}",
                    f"{history.train_acc[i]:.6f}",
                    f"{history.val_loss[i]:.6f}",
                    f"{history.val_acc[i]:.6f}",
                    f"{history.lr[i]:.8g}",
                ]
            )


def read_history_csv(path) -> TrainHistory:
    history = TrainHistory()
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            history.train_loss.append(float(row["train_loss"]))
            history.train_acc.append(float(row["train_acc"]))
            history.val_loss.append(float(row["val_loss"]))
            history.val_acc.append(float(row["val_acc"]))
            history.lr.append(float(row["lr"]))
    return history
