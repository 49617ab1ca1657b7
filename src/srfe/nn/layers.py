"""Layer forward/backward primitives.

Conventions:
  - activations are NHWC: (batch, height, width, channels)
  - each forward returns (out, cache); the matching backward consumes the
    cache and returns dx plus parameter gradients where applicable
  - convolutions are 3x3, stride 1, same padding, weights (3, 3, cin, cout)
  - pooling is 2x2, stride 2; odd trailing rows/columns are dropped

The 3x3 convolution lowers each input window into a row ("im2col") and runs
one big GEMM on the way forward; the lowered matrix is freed immediately
(this box is memory-bandwidth bound, so keeping ~0.5 GB of it alive slows
every later GEMM down).  The backward pass instead loops over the nine tap
offsets, computing both gradients with per-offset GEMMs against the cached
padded input, which never materializes anything bigger than one activation.
"""

from __future__ import annotations

import numpy as np

BN_EPS = 1e-5
BN_MOMENTUM = 0.9
PROB_FLOOR = 1e-12


def _im2col3x3(xp: np.ndarray, h: int, w: int) -> np.ndarray:
    """Lower 3x3 windows of a padded NHWC array into rows of length 9*cin."""
    n, _, _, cin = xp.shape
    cols = np.empty((n, h, w, 3, 3, cin), dtype=xp.dtype)
    for di in range(3):
        for dj in range(3):
            cols[:, :, :, di, dj, :] = xp[:, di : di + h, dj : dj + w, :]
    return cols.reshape(n * h * w, 9 * cin)


def conv3x3_forward(x, w, b):
    n, h, wd, cin = x.shape
    cout = w.shape[3]
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    cols = _im2col3x3(xp, h, wd)
    out = cols @ w.reshape(9 * cin, cout)
    out += b
    return out.reshape(n, h, wd, cout), xp


def conv3x3_backward(dout, xp, w):
    n, hp, wp, cin = xp.shape
    h, wd = hp - 2, wp - 2
    cout = w.shape[3]
    g = dout.reshape(n * h * wd, cout)
    db = g.sum(axis=0)
    dxp = np.zeros_like(xp)

    if cin <= 4:
        # Narrow input: the lowered matrix is tiny, one GEMM each way wins.
        cols = _im2col3x3(xp, h, wd)
        dw = (cols.T @ g).reshape(3, 3, cin, cout)
        dcols = (g @ w.reshape(9 * cin, cout).T).reshape(n, h, wd, 3, 3, cin)
        for di in range(3):
            for dj in range(3):
                dxp[:, di : di + h, dj : dj + wd, :] += dcols[:, :, :, di, dj, :]
    else:
        # Wide input: per-offset GEMMs avoid a huge lowered matrix.
        dw = np.empty((3, 3, cin, cout), dtype=dout.dtype)
        for di in range(3):
            for dj in range(3):
                patch = np.ascontiguousarray(xp[:, di : di + h, dj : dj + wd, :])
                dw[di, dj] = patch.reshape(-1, cin).T @ g
                dxp[:, di : di + h, dj : dj + wd, :] += (g @ w[di, dj].T).reshape(n, h, wd, cin)
    return dxp[:, 1 : h + 1, 1 : wd + 1, :], dw, db


def relu_forward(x):
    """In place: x is overwritten and returned as both output and cache."""
    np.maximum(x, 0, out=x)
    return x, x


def relu_backward(dout, out):
    return dout * (out > 0)


def maxpool2x2_forward(x):
    """Max over 2x2 windows; the winner index (0..3, row-major in the window,
    ties to the lowest) is cached so backward can route gradients exactly."""
    n, h, w, c = x.shape
    h2, w2 = h // 2, w // 2
    tl = x[:, 0 : 2 * h2 : 2, 0 : 2 * w2 : 2, :]
    tr = x[:, 0 : 2 * h2 : 2, 1 : 2 * w2 : 2, :]
    bl = x[:, 1 : 2 * h2 : 2, 0 : 2 * w2 : 2, :]
    br = x[:, 1 : 2 * h2 : 2, 1 : 2 * w2 : 2, :]

    top = np.maximum(tl, tr)
    bottom = np.maximum(bl, br)
    out = np.maximum(top, bottom)

    idx = np.where(bottom > top, (br > bl).view(np.uint8) + 2, (tr > tl).view(np.uint8))
    return out, (x.shape, idx)


def maxpool2x2_backward(dout, cache):
    (n, h, w, c), idx = cache
    h2, w2 = h // 2, w // 2
    dx = np.zeros((n, h, w, c), dtype=dout.dtype)
    quadrants = (
        dx[:, 0 : 2 * h2 : 2, 0 : 2 * w2 : 2, :],
        dx[:, 0 : 2 * h2 : 2, 1 : 2 * w2 : 2, :],
        dx[:, 1 : 2 * h2 : 2, 0 : 2 * w2 : 2, :],
        dx[:, 1 : 2 * h2 : 2, 1 : 2 * w2 : 2, :],
    )
    for q, view in enumerate(quadrants):
        view += dout * (idx == q)
    return dx


def batchnorm_freq_forward(x, gamma, beta, running_mean, running_var, training):
    """Normalize per frequency row: statistics over batch, time, and channels.

    gamma/beta/running stats have shape (height,).  Training mode updates the
    running statistics in place with momentum 0.9 and uses batch statistics;
    eval mode is a fixed affine map built from the running statistics.
    """
    g = gamma[None, :, None, None]
    be = beta[None, :, None, None]
    if training:
        mu = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (x - mu[None, :, None, None]) * inv_std[None, :, None, None]
        running_mean *= BN_MOMENTUM
        running_mean += (1.0 - BN_MOMENTUM) * mu
        running_var *= BN_MOMENTUM
        running_var += (1.0 - BN_MOMENTUM) * var
        return g * xhat + be, (xhat, inv_std, gamma)
    inv_std = 1.0 / np.sqrt(running_var + BN_EPS)
    xhat = (x - running_mean[None, :, None, None]) * inv_std[None, :, None, None]
    return g * xhat + be, None


def batchnorm_freq_backward(dout, cache):
    xhat, inv_std, gamma = cache
    n, _, w, c = dout.shape
    m = n * w * c
    dgamma = (dout * xhat).sum(axis=(0, 2, 3))
    dbeta = dout.sum(axis=(0, 2, 3))
    scale = (gamma * inv_std / m)[None, :, None, None]
    dx = scale * (m * dout - dbeta[None, :, None, None] - xhat * dgamma[None, :, None, None])
    return dx, dgamma, dbeta


def dense_forward(x, w, b):
    return x @ w + b, x


def dense_backward(dout, x, w):
    return dout @ w.T, x.T @ dout, dout.sum(axis=0)


def dropout_forward(x, rate, rng):
    """Inverted dropout: surviving units are scaled by 1/keep at train time."""
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(x.dtype) / keep
    return x * mask, mask


def dropout_backward(dout, mask):
    return dout * mask


def softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits, labels):
    """Mean negative log probability of the true class, and dloss/dlogits."""
    n = logits.shape[0]
    probs = softmax(logits)
    picked = probs[np.arange(n), labels]
    loss = float(-np.log(np.maximum(picked, PROB_FLOOR)).mean())
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return loss, dlogits, probs
