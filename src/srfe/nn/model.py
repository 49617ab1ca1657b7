"""The classifier: batch norm, four conv/pool blocks, dense head with dropout.

Layer order is fixed:

    batchnorm (per frequency row)
    -> [conv 3x3 same -> maxpool 2x2 -> relu] x len(conv_filters)
    -> flatten -> dense + relu -> dropout -> dense -> softmax

with conv widths (64, 128, 256, 256) and a 256-unit hidden layer by default.
Pooling before the ReLU gives the same values as the other order (both are
monotone) on a quarter of the elements.
Convolution and hidden-dense weights use He initialization (normal with
std sqrt(2 / fan_in)); the classifier layer starts at exactly zero so the
initial output is the uniform distribution and the initial loss is
ln(n_classes).  All randomness is derived from the seed, so two models
built with the same arguments are bitwise identical.
"""

from __future__ import annotations

import functools

import numpy as np

from . import layers

RUNNING_KEYS = ("bn/mean", "bn/var")


class ConvNet:
    def __init__(
        self,
        input_height: int,
        input_width: int,
        n_classes: int = 50,
        seed: int = 0,
        conv_filters: tuple = (64, 128, 256, 256),
        dense_units: int = 256,
        dropout_rate: float = 0.5,
        dtype=np.float32,
    ):
        self._configure(input_height, input_width, n_classes, conv_filters, dense_units, dropout_rate)
        self.seed = seed
        self.dtype = dtype
        rng = np.random.default_rng(seed)
        state = {}
        for name, shape in self.tensor_shapes().items():
            if name.endswith("/w") and name != "head/w":  # He: std sqrt(2 / fan_in)
                value = rng.normal(0.0, np.sqrt(2.0 / np.prod(shape[:-1])), size=shape)
            elif name in ("bn/gamma", "bn/var"):
                value = np.ones(shape)
            else:  # biases, bn/beta, bn/mean and the zero classifier
                value = np.zeros(shape)
            state[name] = value.astype(dtype)
        self._assign(state)

    @classmethod
    def from_state(cls, arch: dict, state: dict[str, np.ndarray]) -> "ConvNet":
        """A float32 model holding `state`, built without drawing initial weights.

        `arch` holds the constructor's arguments but seed and dtype; a missing
        or mis-shaped tensor raises ValueError naming it.
        """
        model = cls.__new__(cls)
        model._configure(**arch)
        model.seed = 0
        model.dtype = np.float32
        model.load_state(state)
        return model

    def _configure(self, input_height, input_width, n_classes, conv_filters, dense_units, dropout_rate):
        min_dim = 2 ** len(conv_filters)
        if input_height < min_dim or input_width < min_dim:
            raise ValueError(
                f"input {input_height}x{input_width} too small for "
                f"{len(conv_filters)} 2x2 pooling stages (needs >= {min_dim})"
            )
        if not 0.0 <= dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {dropout_rate}")

        self.input_height = input_height
        self.input_width = input_width
        self.n_classes = n_classes
        self.conv_filters = tuple(int(f) for f in conv_filters)
        self.dense_units = dense_units
        self.dropout_rate = dropout_rate

        h, w = input_height, input_width
        for _ in self.conv_filters:
            h, w = h // 2, w // 2
        self.pooled_shape = (h, w, self.conv_filters[-1])  # after the last pool
        self.flat_dim = h * w * self.conv_filters[-1]

    def tensor_shapes(self) -> dict[str, tuple]:
        """Shape of every parameter and running statistic, in He-init draw order."""
        h = self.input_height
        shapes = {"bn/gamma": (h,), "bn/beta": (h,), "bn/mean": (h,), "bn/var": (h,)}
        cin = 1
        for i, cout in enumerate(self.conv_filters, start=1):
            shapes[f"conv{i}/w"] = (3, 3, cin, cout)
            shapes[f"conv{i}/b"] = (cout,)
            cin = cout
        shapes["fc/w"] = (self.flat_dim, self.dense_units)
        shapes["fc/b"] = (self.dense_units,)
        shapes["head/w"] = (self.dense_units, self.n_classes)
        shapes["head/b"] = (self.n_classes,)
        return shapes

    def _assign(self, state: dict[str, np.ndarray]) -> None:
        self.params = {k: v for k, v in state.items() if k not in RUNNING_KEYS}
        self.running = {k: state[k] for k in RUNNING_KEYS}

    @functools.cached_property
    def _rng(self):  # dropout stream for training passes given no generator
        return np.random.default_rng(self.seed + 1)

    # -- forward ---------------------------------------------------------

    def _check_input(self, x):
        if x.ndim == 3:
            x = x[..., None]
        if x.ndim != 4 or x.shape[1:] != (self.input_height, self.input_width, 1):
            raise ValueError(
                f"expected batch of shape (n, {self.input_height}, {self.input_width}, 1), "
                f"got {x.shape}"
            )
        return np.ascontiguousarray(x, dtype=self.dtype)

    def _forward(self, x, training: bool, rng):
        p = self.params
        caches = {}
        a, caches["bn"] = layers.batchnorm_freq_forward(
            x, p["bn/gamma"], p["bn/beta"], self.running["bn/mean"], self.running["bn/var"], training
        )
        for i in range(1, len(self.conv_filters) + 1):
            a, xp = layers.conv3x3_forward(a, p[f"conv{i}/w"], p[f"conv{i}/b"])
            a, pool = layers.maxpool2x2_forward(a)
            a, mask = layers.relu_forward(a)
            caches[f"conv{i}"] = (xp, pool, mask)
        a = a.reshape(a.shape[0], self.flat_dim)
        a, caches["fc_x"] = layers.dense_forward(a, p["fc/w"], p["fc/b"])
        a, caches["fc_out"] = layers.relu_forward(a)
        if training and self.dropout_rate > 0.0:
            a, caches["drop"] = layers.dropout_forward(a, self.dropout_rate, rng or self._rng)
        else:
            caches["drop"] = None
        logits, caches["head_x"] = layers.dense_forward(a, p["head/w"], p["head/b"])
        return logits, caches

    def forward(self, x):
        """Eval-mode class probabilities, one row per sample."""
        logits, _ = self._forward(self._check_input(x), False, None)
        return layers.softmax(logits)

    def loss_and_grads(self, x, labels, rng=None, return_probs: bool = False):
        """Training-mode cross-entropy loss and gradients for every parameter.

        With return_probs=True the training-mode class probabilities come
        back as a third element, saving the training loop a second forward
        pass when it wants running accuracy.
        """
        x = self._check_input(x)
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 1 or labels.shape[0] != x.shape[0]:
            raise ValueError(f"labels shape {labels.shape} does not match batch {x.shape[0]}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise ValueError(f"labels must be in [0, {self.n_classes})")

        logits, caches = self._forward(x, training=True, rng=rng)
        loss, dlogits, probs = layers.softmax_cross_entropy(logits, labels)

        p = self.params
        grads: dict[str, np.ndarray] = {}
        da, grads["head/w"], grads["head/b"] = layers.dense_backward(
            dlogits, caches["head_x"], p["head/w"]
        )
        if caches["drop"] is not None:
            da = layers.dropout_backward(da, caches["drop"])
        da = layers.relu_backward(da, caches["fc_out"])
        da, grads["fc/w"], grads["fc/b"] = layers.dense_backward(da, caches["fc_x"], p["fc/w"])

        da = da.reshape(da.shape[0], *self.pooled_shape)

        for i in range(len(self.conv_filters), 0, -1):
            xp, pool, mask = caches.pop(f"conv{i}")  # free layer caches as we go
            da = layers.relu_backward(da, mask)
            da = layers.maxpool2x2_backward(da, pool)
            da, grads[f"conv{i}/w"], grads[f"conv{i}/b"] = layers.conv3x3_backward(
                da, xp, p[f"conv{i}/w"]
            )
            del xp
        _, grads["bn/gamma"], grads["bn/beta"] = layers.batchnorm_freq_backward(
            da, caches["bn"]
        )
        if return_probs:
            return loss, grads, probs
        return loss, grads

    def predict(self, x, batch_size: int = 32):
        """Eval-mode argmax labels and probabilities, in input order.

        Runs in batches so wide-activation layers do not blow up memory on
        large evaluation sets.  Ties break toward the lower class id.
        """
        x = self._check_input(x)
        probs = np.empty((x.shape[0], self.n_classes), dtype=self.dtype)
        for lo in range(0, x.shape[0], batch_size):
            probs[lo : lo + batch_size] = self.forward(x[lo : lo + batch_size])
        return probs.argmax(axis=1), probs

    # -- state -----------------------------------------------------------

    def state_copy(self) -> dict[str, np.ndarray]:
        state = {k: v.copy() for k, v in self.params.items()}
        state.update({k: v.copy() for k, v in self.running.items()})
        return state

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        checked = {}
        for key, shape in self.tensor_shapes().items():
            if key not in state:
                raise ValueError(f"state is missing tensor {key!r}")
            if state[key].shape != shape:
                raise ValueError(f"tensor {key!r} has shape {state[key].shape}, expected {shape}")
            checked[key] = state[key].astype(self.dtype)
        self._assign(checked)
