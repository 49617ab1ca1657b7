"""Whole-model behavior: shapes, determinism, softmax output, gradient check."""

import numpy as np
import pytest

from srfe.nn import ConvNet, max_relative_gradient_error


class TestInit:
    def test_full_scale_shapes(self):
        model = ConvNet(128, 216, 50, seed=0)
        assert model.flat_dim == 8 * 13 * 256 == 26624
        assert model.params["fc/w"].shape == (26624, 256)
        assert model.params["head/b"].shape == (50,)
        for i, cout in enumerate((64, 128, 256, 256), start=1):
            cin = 1 if i == 1 else (64, 128, 256)[i - 2]
            assert model.params[f"conv{i}/w"].shape == (3, 3, cin, cout)

    def test_same_seed_identical(self):
        a = ConvNet(32, 32, 10, seed=5)
        b = ConvNet(32, 32, 10, seed=5)
        for key in a.params:
            np.testing.assert_array_equal(a.params[key], b.params[key])

    def test_different_seed_differs(self):
        a = ConvNet(32, 32, 10, seed=5)
        b = ConvNet(32, 32, 10, seed=6)
        assert any(not np.array_equal(a.params[k], b.params[k]) for k in a.params)

    def test_too_small_input_rejected(self):
        with pytest.raises(ValueError):
            ConvNet(8, 216, 50)  # four pools need >= 16


class TestForward:
    def test_probabilities_normalized(self):
        model = ConvNet(16, 16, 7, seed=1, conv_filters=(4, 4, 4, 4), dense_units=8)
        x = np.random.default_rng(2).random((5, 16, 16, 1), dtype=np.float32)
        probs = model.forward(x)
        assert probs.shape == (5, 7)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-5)

    def test_eval_mode_deterministic(self):
        model = ConvNet(16, 16, 3, seed=1, conv_filters=(4,), dense_units=8)
        x = np.random.default_rng(3).random((4, 16, 16, 1), dtype=np.float32)
        np.testing.assert_array_equal(model.forward(x), model.forward(x))

    def test_zero_head_gives_uniform(self):
        model = ConvNet(16, 16, 50, seed=2, conv_filters=(4,), dense_units=8)
        x = np.random.default_rng(4).random((3, 16, 16, 1), dtype=np.float32)
        np.testing.assert_allclose(model.forward(x), 1.0 / 50, atol=1e-7)

    def test_shape_mismatch_rejected(self):
        model = ConvNet(16, 16, 3, seed=1, conv_filters=(4,))
        with pytest.raises(ValueError):
            model.forward(np.zeros((2, 8, 8, 1), dtype=np.float32))


class TestLossAndGrads:
    def test_uniform_model_loss_is_log_nclasses(self):
        model = ConvNet(16, 16, 50, seed=3, conv_filters=(4,), dense_units=8,
                           dropout_rate=0.0)
        x = np.random.default_rng(5).random((6, 16, 16, 1), dtype=np.float32)
        y = np.random.default_rng(6).integers(0, 50, 6)
        loss, _ = model.loss_and_grads(x, y)
        assert loss == pytest.approx(np.log(50), abs=1e-6)

    def test_gradient_for_every_parameter(self):
        model = ConvNet(16, 16, 4, seed=4, conv_filters=(2, 2), dense_units=6)
        x = np.random.default_rng(7).random((3, 16, 16, 1), dtype=np.float32)
        y = np.array([0, 1, 3])
        _, grads = model.loss_and_grads(x, y)
        assert set(grads) == set(model.params)
        for key in grads:
            assert grads[key].shape == model.params[key].shape

    def test_label_out_of_range(self):
        model = ConvNet(16, 16, 4, seed=4, conv_filters=(2,))
        x = np.zeros((1, 16, 16, 1), dtype=np.float32)
        with pytest.raises(ValueError):
            model.loss_and_grads(x, np.array([4]))

    def test_full_stack_gradient_check_float64(self):
        """The acceptance-bound check: downsized architecture, 2 classes, 8x8."""
        rng = np.random.default_rng(42)
        model = ConvNet(8, 8, n_classes=2, seed=1, conv_filters=(4,), dense_units=8,
                        dropout_rate=0.5, dtype=np.float64)
        x = rng.normal(size=(2, 8, 8, 1))
        y = np.array([0, 1])
        err = max_relative_gradient_error(model, x, y, h=1e-3)
        assert err < 1e-4

    def test_gradient_check_two_blocks(self):
        rng = np.random.default_rng(43)
        model = ConvNet(16, 16, n_classes=3, seed=2, conv_filters=(3, 4), dense_units=6,
                        dropout_rate=0.5, dtype=np.float64)
        x = rng.normal(size=(2, 16, 16, 1))
        y = np.array([2, 0])
        err = max_relative_gradient_error(model, x, y, h=1e-3)
        assert err < 1e-4


class TestPredict:
    def test_uniform_model_ties_break_to_class_zero(self):
        model = ConvNet(16, 16, 5, seed=5, conv_filters=(4,), dense_units=8)
        x = np.random.default_rng(8).random((4, 16, 16, 1), dtype=np.float32)
        labels, probs = model.predict(x)
        np.testing.assert_array_equal(labels, 0)
        np.testing.assert_allclose(probs, 0.2, atol=1e-7)

    def test_forced_class_prediction(self):
        model = ConvNet(16, 16, 9, seed=6, conv_filters=(4,), dense_units=8)
        model.params["head/b"][7] = 50.0
        labels, _ = model.predict(np.random.default_rng(9).random((3, 16, 16, 1), dtype=np.float32))
        np.testing.assert_array_equal(labels, 7)

    def test_order_preserving_batched(self):
        model = ConvNet(16, 16, 5, seed=7, conv_filters=(4,), dense_units=8)
        model.params["head/w"] = np.random.default_rng(10).normal(
            0, 0.5, model.params["head/w"].shape
        ).astype(np.float32)
        x = np.random.default_rng(11).random((10, 16, 16, 1), dtype=np.float32)
        all_labels, all_probs = model.predict(x, batch_size=3)
        one_labels, one_probs = model.predict(x, batch_size=10)
        np.testing.assert_array_equal(all_labels, one_labels)
        np.testing.assert_allclose(all_probs, one_probs, atol=1e-6)
