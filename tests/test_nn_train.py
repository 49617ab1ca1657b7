"""Adam, the plateau callbacks, the training loop, and checkpoint files."""

import numpy as np
import pytest

from srfe.errors import CheckpointError
from srfe.nn import (
    ConvNet,
    PlateauPolicy,
    TrainConfig,
    adam_step,
    init_adam,
    load_checkpoint,
    read_history_csv,
    save_checkpoint,
    train,
    write_history_csv,
)


class TestAdam:
    def test_zero_gradients_leave_params_unchanged(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        state = init_adam(params)
        adam_step(params, {"w": np.zeros(3)}, state, lr=0.1)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0, 3.0])

    def test_first_step_magnitude_is_lr(self):
        # After bias correction the first update is lr * sign(g) for eps -> 0.
        params = {"w": np.array([0.5, -0.5])}
        state = init_adam(params)
        g = np.array([0.3, -0.7])
        adam_step(params, {"w": g}, state, lr=0.01)
        update = np.array([0.5, -0.5]) - params["w"]
        np.testing.assert_allclose(update, 0.01 * np.sign(g), rtol=1e-6)

    def test_scalar_quadratic_converges(self):
        # f(w) = w^2, gradient 2w; 200 steps at lr 0.1 from w0 = 1.
        params = {"w": np.array([1.0])}
        state = init_adam(params)
        for _ in range(200):
            adam_step(params, {"w": 2.0 * params["w"]}, state, lr=0.1)
        assert abs(params["w"][0]) < 1e-2

    def test_shape_mismatch_rejected(self):
        params = {"w": np.zeros(3)}
        state = init_adam(params)
        with pytest.raises(ValueError):
            adam_step(params, {"w": np.zeros(4)}, state, lr=0.1)

    def test_timestep_advances(self):
        params = {"w": np.zeros(2)}
        state = init_adam(params)
        adam_step(params, {"w": np.ones(2)}, state, lr=0.1)
        adam_step(params, {"w": np.ones(2)}, state, lr=0.1)
        assert state.t == 2


class TestPlateauPolicy:
    def test_strictly_decreasing_never_reduces(self):
        policy = PlateauPolicy(initial_lr=1e-3)
        for loss in [1.0, 0.9, 0.8, 0.7, 0.6]:
            improved, stop = policy.update(loss)
            assert improved and not stop
        assert policy.lr == 1e-3
        assert policy.n_reductions == 0

    def test_flat_sequence_trace(self):
        """Flat losses: the best epoch is 1; the rate drops every 2 stalled
        epochs (3, 5, 7) and the stop fires 6 stalled epochs after the best
        (epoch 7, alongside that day's reduction)."""
        policy = PlateauPolicy(initial_lr=1e-3, reduce_factor=0.1, lr_patience=2, stop_patience=6)
        events = []
        for epoch in range(1, 10):
            reductions_before = policy.n_reductions
            improved, stop = policy.update(1.0)
            if policy.n_reductions > reductions_before:
                events.append(("reduce", epoch))
            if stop:
                events.append(("stop", epoch))
                break
        assert events == [("reduce", 3), ("reduce", 5), ("reduce", 7), ("stop", 7)]

    def test_lr_is_exact_power_of_factor(self):
        policy = PlateauPolicy(initial_lr=0.001, reduce_factor=0.1, lr_patience=1, stop_patience=None)
        policy.update(1.0)
        for k in range(1, 4):
            policy.update(1.0)
            assert policy.lr == 0.001 * 0.1 ** k

    def test_improvement_must_be_strict(self):
        policy = PlateauPolicy(initial_lr=1.0, lr_patience=2, stop_patience=None)
        assert policy.update(0.5) == (True, False)
        improved, _ = policy.update(0.5)  # equal is not an improvement
        assert not improved

    def test_disabled_callbacks(self):
        policy = PlateauPolicy(initial_lr=1.0, lr_patience=None, stop_patience=None)
        for _ in range(20):
            improved, stop = policy.update(1.0)
            assert not stop
        assert policy.lr == 1.0

    def test_invalid_patience(self):
        with pytest.raises(ValueError):
            PlateauPolicy(initial_lr=1.0, lr_patience=0)
        with pytest.raises(ValueError):
            PlateauPolicy(initial_lr=1.0, reduce_factor=1.5)


def tiny_model(seed=0, n_classes=3):
    return ConvNet(16, 16, n_classes, seed=seed, conv_filters=(4,), dense_units=8)


def toy_data(n, n_classes=3, seed=0):
    """Linearly separable toy images: class k lights up a distinct region."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, n_classes, n)
    x = rng.random((n, 16, 16, 1), dtype=np.float32) * 0.1
    for i, label in enumerate(y):
        x[i, :, label * 5 : label * 5 + 5, 0] += 1.0
    return x, y


class TestTrainLoop:
    def test_history_and_lr_columns(self):
        x, y = toy_data(24)
        model = tiny_model()
        cfg = TrainConfig(batch_size=8, max_epochs=4, seed=1)
        model, history = train(model, x, y, x, y, cfg)
        assert history.epochs == 4
        assert all(b <= a for a, b in zip(history.lr, history.lr[1:]))  # non-increasing
        for lr in history.lr:
            k = round(np.log10(cfg.initial_lr / lr))
            assert lr == pytest.approx(cfg.initial_lr * cfg.lr_reduce_factor ** k)

    def test_same_seed_reproduces_training(self):
        x, y = toy_data(16)
        cfg = TrainConfig(batch_size=8, max_epochs=3, seed=9)
        m1, h1 = train(tiny_model(seed=2), x, y, x, y, cfg)
        m2, h2 = train(tiny_model(seed=2), x, y, x, y, cfg)
        assert h1.train_loss == h2.train_loss
        assert h1.val_loss == h2.val_loss
        for key in m1.params:
            np.testing.assert_array_equal(m1.params[key], m2.params[key])

    def test_returns_best_epoch_parameters(self):
        x, y = toy_data(24, seed=3)
        cfg = TrainConfig(batch_size=8, max_epochs=6, seed=4,
                          lr_patience=None, early_stop_patience=None)
        model, history = train(tiny_model(seed=3), x, y, x, y, cfg)
        from srfe.nn import evaluate
        val_loss, _ = evaluate(model, x, y, batch_size=8)
        assert val_loss == pytest.approx(min(history.val_loss), abs=1e-6)

    def test_learns_separable_toy_problem(self):
        x, y = toy_data(30, seed=5)
        cfg = TrainConfig(batch_size=10, max_epochs=25, seed=5,
                          lr_patience=None, early_stop_patience=None)
        model, history = train(tiny_model(seed=5), x, y, x, y, cfg)
        assert history.train_loss[-1] < history.train_loss[0]
        labels, _ = model.predict(x)
        assert np.mean(labels == y) > 0.9

    def test_early_stop_bounds_epochs(self):
        x, y = toy_data(16, seed=6)
        # Zero LR: nothing improves after epoch 1, so stop fires at epoch 1 + patience.
        cfg = TrainConfig(batch_size=8, max_epochs=50, initial_lr=0.0, seed=6,
                          lr_patience=None, early_stop_patience=3)
        _, history = train(tiny_model(seed=6), x, y, x, y, cfg)
        assert history.epochs == 4

    def test_empty_sets_rejected(self):
        x, y = toy_data(8)
        with pytest.raises(ValueError):
            train(tiny_model(), x, y, x[:0], y[:0], TrainConfig())


class TestCheckpoint:
    def test_roundtrip_preserves_params_and_predictions(self, tmp_path):
        x, y = toy_data(16, seed=7)
        cfg = TrainConfig(batch_size=8, max_epochs=2, seed=7)
        model, _ = train(tiny_model(seed=7), x, y, x, y, cfg)
        path = tmp_path / "model.srnn"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.n_classes == model.n_classes
        assert loaded.conv_filters == model.conv_filters
        for key in model.params:
            np.testing.assert_array_equal(loaded.params[key], model.params[key])
        np.testing.assert_allclose(loaded.forward(x), model.forward(x), atol=1e-6)

    @pytest.mark.parametrize("defect, tensor", [(None, None), ("missing", "fc/b"), ("misshaped", "conv1/w")])
    def test_load_draws_no_initial_weights(self, tmp_path, monkeypatch, defect, tensor):
        model = tiny_model(seed=11)
        if defect == "missing":
            del model.params[tensor]
        elif defect == "misshaped":
            model.params[tensor] = model.params[tensor][..., :2]
        path = tmp_path / "model.srnn"
        save_checkpoint(model, path)
        x, _ = toy_data(4, seed=11)

        def no_draws(*args, **kwargs):
            raise AssertionError("loading a checkpoint must not draw random weights")

        monkeypatch.setattr("srfe.nn.model.np.random.default_rng", no_draws)
        if defect is None:
            loaded = load_checkpoint(path)
            saved = model.state_copy()
            assert loaded.state_copy().keys() == saved.keys()
            for key, value in saved.items():
                np.testing.assert_array_equal(loaded.state_copy()[key], value)
            np.testing.assert_array_equal(loaded.forward(x), model.forward(x))
        else:
            with pytest.raises(CheckpointError, match=tensor):
                load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.srnn"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.srnn"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_history_csv_roundtrip(self, tmp_path):
        x, y = toy_data(16, seed=8)
        _, history = train(tiny_model(seed=8), x, y, x, y,
                           TrainConfig(batch_size=8, max_epochs=3, seed=8))
        path = tmp_path / "history.csv"
        write_history_csv(history, path)
        back = read_history_csv(path)
        np.testing.assert_allclose(back.train_loss, history.train_loss, atol=1e-6)
        np.testing.assert_allclose(back.lr, history.lr, rtol=1e-6)
        header = path.read_text().splitlines()[0]
        assert header == "epoch,train_loss,train_acc,val_loss,val_acc,lr"
