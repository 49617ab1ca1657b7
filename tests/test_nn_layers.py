"""Per-layer forward/backward checks against central finite differences."""

import numpy as np
import pytest

from srfe.nn import layers as L


def numeric_grad(f, x, dout, h=1e-5):
    """Central-difference gradient of sum(f(x) * dout) with respect to x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        plus = np.sum(f(x) * dout)
        flat[i] = orig - h
        minus = np.sum(f(x) * dout)
        flat[i] = orig
        gflat[i] = (plus - minus) / (2 * h)
    return grad


def rel_error(a, b):
    return np.max(np.abs(a - b) / np.maximum(np.abs(a) + np.abs(b), 1e-8))


class TestConv:
    def test_known_small_case(self):
        # Identity kernel: center tap 1, everything else 0.
        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
        w = np.zeros((3, 3, 1, 1))
        w[1, 1, 0, 0] = 1.0
        out, _ = L.conv3x3_forward(x, w, np.zeros(1))
        np.testing.assert_allclose(out, x)

    def test_shift_kernel_respects_padding(self):
        x = np.ones((1, 3, 3, 1))
        w = np.zeros((3, 3, 1, 1))
        w[0, 0, 0, 0] = 1.0  # reads the up-left neighbor
        out, _ = L.conv3x3_forward(x, w, np.zeros(1))
        # Border rows/cols read zero padding.
        expected = np.array([[0, 0, 0], [0, 1, 1], [0, 1, 1]], dtype=float)
        np.testing.assert_allclose(out[0, :, :, 0], expected)

    @pytest.mark.parametrize("cin,cout", [(1, 3), (5, 4)])
    def test_gradients(self, cin, cout):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 5, 6, cin))
        w = rng.normal(size=(3, 3, cin, cout)) * 0.3
        b = rng.normal(size=cout) * 0.1
        out, xp = L.conv3x3_forward(x, w, b)
        dout = rng.normal(size=out.shape)
        dx, dw, db = L.conv3x3_backward(dout, xp, w)

        ndx = numeric_grad(lambda v: L.conv3x3_forward(v, w, b)[0], x.copy(), dout)
        ndw = numeric_grad(lambda v: L.conv3x3_forward(x, v, b)[0], w.copy(), dout)
        ndb = numeric_grad(lambda v: L.conv3x3_forward(x, w, v)[0], b.copy(), dout)
        assert rel_error(dx, ndx) < 1e-6
        assert rel_error(dw, ndw) < 1e-6
        assert rel_error(db, ndb) < 1e-6


class TestMaxPool:
    def test_forward_values(self):
        x = np.array([[1, 2, 5, 3], [4, 0, 1, 1], [0, 0, 2, 2], [9, 1, 2, 2]], dtype=float)
        out, _ = L.maxpool2x2_forward(x.reshape(1, 4, 4, 1))
        np.testing.assert_allclose(out[0, :, :, 0], [[4, 5], [9, 2]])

    def test_odd_dimensions_floor(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 27, 5, 3))
        out, _ = L.maxpool2x2_forward(x)
        assert out.shape == (2, 13, 2, 3)

    def test_backward_routes_to_argmax_only(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 6, 4, 3))
        out, cache = L.maxpool2x2_forward(x)
        dout = rng.normal(size=out.shape)
        dx = L.maxpool2x2_backward(dout, cache)
        ndx = numeric_grad(lambda v: L.maxpool2x2_forward(v)[0], x.copy(), dout)
        assert rel_error(dx, ndx) < 1e-6
        # Each window puts all its gradient on exactly one element.
        nonzero_per_window = (dx[:, 0:6:2, 0:4:2, :] != 0).astype(int) + \
            (dx[:, 0:6:2, 1:4:2, :] != 0) + (dx[:, 1:6:2, 0:4:2, :] != 0) + \
            (dx[:, 1:6:2, 1:4:2, :] != 0)
        assert np.all(nonzero_per_window <= 1)

    def test_tie_goes_to_first_position(self):
        x = np.full((1, 2, 2, 1), 7.0)
        out, cache = L.maxpool2x2_forward(x)
        dx = L.maxpool2x2_backward(np.ones_like(out), cache)
        np.testing.assert_allclose(dx[0, :, :, 0], [[1, 0], [0, 0]])


class TestPoolReluOrder:
    def test_pool_then_relu_matches_relu_then_pool(self):
        # Negatives and ties (rounded values, a zeroed row) in most windows.
        rng = np.random.default_rng(11)
        x = np.round(rng.normal(size=(3, 8, 6, 4)), 1).astype(np.float32)
        x[:, 2] = 0.0
        dout = rng.normal(size=(3, 4, 3, 4)).astype(np.float32)

        a, relu_a = L.relu_forward(x.copy())
        out_a, pool_a = L.maxpool2x2_forward(a)
        dx_a = L.relu_backward(L.maxpool2x2_backward(dout, pool_a), relu_a)

        pooled, pool_b = L.maxpool2x2_forward(x.copy())
        out_b, relu_b = L.relu_forward(pooled)
        dx_b = L.maxpool2x2_backward(L.relu_backward(dout, relu_b), pool_b)

        np.testing.assert_array_equal(out_b, out_a)
        np.testing.assert_array_equal(dx_b, dx_a)


class TestBatchNorm:
    def setup_params(self, h=5):
        rng = np.random.default_rng(3)
        gamma = rng.normal(1.0, 0.2, h)
        beta = rng.normal(0.0, 0.2, h)
        return rng, gamma, beta

    def test_training_normalizes_per_frequency_row(self):
        rng, gamma, beta = self.setup_params()
        x = rng.normal(3.0, 2.0, size=(8, 5, 7, 2))
        rm, rv = np.zeros(5), np.ones(5)
        out, _ = L.batchnorm_freq_forward(x, np.ones(5), np.zeros(5), rm, rv, training=True)
        means = out.mean(axis=(0, 2, 3))
        stds = out.std(axis=(0, 2, 3))
        np.testing.assert_allclose(means, 0.0, atol=1e-10)
        np.testing.assert_allclose(stds, 1.0, atol=1e-3)

    def test_running_stats_move_toward_batch_stats(self):
        rng, gamma, beta = self.setup_params()
        x = rng.normal(2.0, 1.5, size=(16, 5, 4, 1))
        rm, rv = np.zeros(5), np.ones(5)
        L.batchnorm_freq_forward(x, gamma, beta, rm, rv, training=True)
        expected_rm = 0.1 * x.mean(axis=(0, 2, 3))
        np.testing.assert_allclose(rm, expected_rm, rtol=1e-10)

    def test_eval_is_deterministic_affine(self):
        rng, gamma, beta = self.setup_params()
        x = rng.normal(size=(4, 5, 6, 2))
        rm = rng.normal(size=5)
        rv = rng.random(5) + 0.5
        out1, _ = L.batchnorm_freq_forward(x, gamma, beta, rm.copy(), rv.copy(), training=False)
        out2, _ = L.batchnorm_freq_forward(x, gamma, beta, rm.copy(), rv.copy(), training=False)
        np.testing.assert_array_equal(out1, out2)

    def test_gradients(self):
        rng, gamma, beta = self.setup_params()
        x = rng.normal(size=(3, 5, 4, 2))

        def fwd(xv, gv, bv):
            return L.batchnorm_freq_forward(
                xv, gv, bv, np.zeros(5), np.ones(5), training=True
            )[0]

        out, cache = L.batchnorm_freq_forward(
            x, gamma, beta, np.zeros(5), np.ones(5), training=True
        )
        dout = rng.normal(size=out.shape)
        dx, dgamma, dbeta = L.batchnorm_freq_backward(dout, cache)
        assert rel_error(dx, numeric_grad(lambda v: fwd(v, gamma, beta), x.copy(), dout)) < 1e-5
        assert rel_error(dgamma, numeric_grad(lambda v: fwd(x, v, beta), gamma.copy(), dout)) < 1e-6
        assert rel_error(dbeta, numeric_grad(lambda v: fwd(x, gamma, v), beta.copy(), dout)) < 1e-6


class TestDense:
    def test_gradients(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 7))
        w = rng.normal(size=(7, 3))
        b = rng.normal(size=3)
        out, _ = L.dense_forward(x, w, b)
        dout = rng.normal(size=out.shape)
        dx, dw, db = L.dense_backward(dout, x, w)
        assert rel_error(dx, numeric_grad(lambda v: L.dense_forward(v, w, b)[0], x.copy(), dout)) < 1e-6
        assert rel_error(dw, numeric_grad(lambda v: L.dense_forward(x, v, b)[0], w.copy(), dout)) < 1e-6
        assert rel_error(db, numeric_grad(lambda v: L.dense_forward(x, w, v)[0], b.copy(), dout)) < 1e-6


class TestDropout:
    def test_inverted_scaling_expectation(self):
        # Mean of many stochastic passes matches the eval activation within 3%.
        rng = np.random.default_rng(5)
        x = rng.random(256) + 0.5
        total = np.zeros_like(x)
        passes = 10_000
        for _ in range(passes):
            out, _ = L.dropout_forward(x, 0.5, rng)
            total += out
        np.testing.assert_allclose(total / passes, x, rtol=0.03)

    def test_mask_values(self):
        rng = np.random.default_rng(6)
        x = np.ones(1000)
        out, mask = L.dropout_forward(x, 0.5, rng)
        assert set(np.unique(out)) <= {0.0, 2.0}
        dx = L.dropout_backward(np.ones_like(x), mask)
        np.testing.assert_array_equal(dx, out)


class TestSoftmaxCrossEntropy:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        probs = L.softmax(rng.normal(size=(9, 50)) * 10)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-5)
        assert np.all(probs >= 0)

    def test_uniform_loss_is_log_n(self):
        loss, _, probs = L.softmax_cross_entropy(np.zeros((4, 50)), np.array([0, 7, 21, 49]))
        assert loss == pytest.approx(np.log(50), abs=1e-9)
        np.testing.assert_allclose(probs, 1.0 / 50)

    def test_confident_correct_prediction_near_zero_loss(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 40.0
        loss, _, _ = L.softmax_cross_entropy(logits, np.array([2]))
        assert loss < 1e-9

    def test_gradient(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, 5)
        _, dlogits, _ = L.softmax_cross_entropy(logits, labels)

        def loss_of(z):
            return L.softmax_cross_entropy(z, labels)[0]

        num = np.zeros_like(logits)
        h = 1e-6
        flat, nflat = logits.reshape(-1), num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            plus = loss_of(logits)
            flat[i] = orig - h
            minus = loss_of(logits)
            flat[i] = orig
            nflat[i] = (plus - minus) / (2 * h)
        assert rel_error(dlogits, num) < 1e-6
