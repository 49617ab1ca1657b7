"""Mini-batch training loop with plateau callbacks and best-epoch restore."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .layers import PROB_FLOOR
from .model import ConvNet
from .optim import adam_step, init_adam
from .schedule import PlateauPolicy

log = logging.getLogger("srfe.train")


@dataclass(frozen=True)
class TrainConfig:
    """Training fields of a run; RunConfig extends this class under the same names."""

    batch_size: int = 32
    initial_lr: float = 0.001
    epochs: int = 50
    lr_reduce_factor: float = 0.1
    lr_patience: int = 2
    early_stop_patience: int = 6
    seed: int = 0


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    train_acc: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    val_acc: list = field(default_factory=list)
    lr: list = field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.train_loss)


def evaluate(model: ConvNet, x, y, batch_size: int = 32) -> tuple[float, float]:
    """Eval-mode loss and accuracy over a labeled set."""
    y = np.asarray(y, dtype=np.int64)
    labels, probs = model.predict(x, batch_size)
    # The log runs in the model dtype and the mean in float64.
    losses = -np.log(np.maximum(probs[np.arange(y.shape[0]), y], PROB_FLOOR))
    return float(losses.astype(np.float64).mean()), int((labels == y).sum()) / y.shape[0]


def train(model: ConvNet, train_x, train_y, val_x, val_y, cfg: TrainConfig):
    """Train with seeded shuffling and the two plateau callbacks.

    Each epoch runs every training batch (the final partial batch included),
    then scores the validation set in eval mode.  The learning rate drops by
    cfg.lr_reduce_factor after cfg.lr_patience consecutive epochs without a
    strictly lower validation loss; training stops after
    cfg.early_stop_patience such epochs; a patience of 0 turns that callback
    off.  The returned model carries the parameters of the best-validation-loss
    epoch.  A non-finite training or validation loss raises ValueError.
    """
    train_y = np.asarray(train_y, dtype=np.int64)
    val_y = np.asarray(val_y, dtype=np.int64)
    if train_y.size == 0 or val_y.size == 0:
        raise ValueError("training and validation sets must be non-empty")

    rng = np.random.default_rng(cfg.seed)
    policy = PlateauPolicy(
        initial_lr=cfg.initial_lr,
        reduce_factor=cfg.lr_reduce_factor,
        lr_patience=cfg.lr_patience or None,
        stop_patience=cfg.early_stop_patience or None,
    )
    adam = init_adam(model.params)
    history = TrainHistory()
    best_state = model.state_copy()
    n = train_y.shape[0]

    for epoch in range(cfg.epochs):
        lr = policy.lr
        order = rng.permutation(n)
        batch_losses = []
        batch_correct = 0
        for lo in range(0, n, cfg.batch_size):
            sel = order[lo : lo + cfg.batch_size]
            xb = train_x[sel]
            yb = train_y[sel]
            loss, grads, probs = model.loss_and_grads(xb, yb, rng=rng, return_probs=True)
            if not np.isfinite(loss):
                batch = lo // cfg.batch_size + 1
                raise ValueError(f"non-finite training loss at epoch {epoch + 1}, batch {batch}")
            adam_step(model.params, grads, adam, lr)
            batch_losses.append(loss * len(sel))
            batch_correct += int((probs.argmax(axis=1) == yb).sum())

        train_loss = float(np.sum(batch_losses) / n)
        train_acc = batch_correct / n
        val_loss, val_acc = evaluate(model, val_x, val_y, cfg.batch_size)
        if not np.isfinite(val_loss):
            raise ValueError(f"non-finite validation loss at epoch {epoch + 1}")

        history.train_loss.append(train_loss)
        history.train_acc.append(train_acc)
        history.val_loss.append(val_loss)
        history.val_acc.append(val_acc)
        history.lr.append(lr)

        improved, should_stop = policy.update(val_loss)
        if improved:
            best_state = model.state_copy()
        log.info(
            "epoch %d: loss=%.4f acc=%.3f val_loss=%.4f val_acc=%.3f lr=%.2e%s",
            epoch + 1, train_loss, train_acc, val_loss, val_acc, lr,
            " *" if improved else "",
        )
        if should_stop:
            log.info("early stop after epoch %d", epoch + 1)
            break

    model.load_state(best_state)
    return model, history
