"""Seeded mini-batch training with Adam or plain SGD.

Training is a pure function of (architecture, dataset, config): weight init,
shuffling, and batch reduction order are all derived from the config seed, so
identical inputs give bit-identical weights.

Every forward and backward pass goes through `architectures.Model`, the one
execution path: `Model.mse_step` is the training step of `train_model`, and
`Model.predict` the batched inference behind `predict_batch`. Architectures
that can only be counted (above `LARGE_PARAM_THRESHOLD` parameters, such as
cnn_dense) can be neither trained nor run.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .architectures import ArchitectureSpec, Model, as_windows, init_params
from .errors import ConfigError, NumericError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0
    optimizer: str = "adam"

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ConfigError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not all(isinstance(v, numbers.Integral) and v > 0 for v in (self.epochs, self.batch_size)):
            raise ConfigError(f"epochs and batch_size must be positive integers, "
                              f"got {self.epochs!r} and {self.batch_size!r}")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


class TrainingDiverged(NumericError):
    """Loss went non-finite; `history` holds the epochs completed so far."""

    def __init__(self, message: str, history):
        super().__init__(message)
        self.history = history


def _stack_dataset(dataset):
    pairs = list(dataset)
    if not pairs:
        raise ConfigError("training dataset is empty")
    windows, targets = zip(*pairs)
    return as_windows(windows), np.asarray(targets, dtype=np.float64)


def _eval_loss(model: Model, X: np.ndarray, Y: np.ndarray, batch_size: int) -> float:
    pred = model.predict(X, batch_size)
    total = 0.0
    for lo in range(0, len(X), batch_size):
        total += float(np.sum((pred[lo:lo + batch_size] - Y[lo:lo + batch_size]) ** 2))
    return total / Y.size


def train_model(spec: ArchitectureSpec, dataset, cfg: TrainConfig, val_dataset=None):
    """Returns (params, history); history rows are (epoch, train_loss, val_loss).

    `dataset` and `val_dataset` hold (window, target) pairs. val_loss is NaN
    when no validation set is given. Aborts with TrainingDiverged (carrying
    the history so far) if the loss goes non-finite.
    """
    X, Y = _stack_dataset(dataset)
    Xv, Yv = _stack_dataset(val_dataset) if val_dataset else (None, None)

    params = init_params(spec, cfg.seed)
    model = Model(spec, params)
    if cfg.optimizer == "adam":
        adam_m = {n: np.zeros_like(p) for n, p in params.items()}
        adam_v = {n: np.zeros_like(p) for n, p in params.items()}
    step = 0

    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(X))
        running = 0.0
        for lo in range(0, len(X), cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            batch_loss = model.mse_step(X[idx], Y[idx])
            if not np.isfinite(batch_loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch {lo // cfg.batch_size}", history
                )
            running += batch_loss * len(idx)
            grads = model.gradients()
            step += 1
            if cfg.optimizer == "adam":
                correct1 = 1.0 - ADAM_BETA1 ** step
                correct2 = 1.0 - ADAM_BETA2 ** step
                for n, g in grads.items():
                    adam_m[n] *= ADAM_BETA1
                    adam_m[n] += (1.0 - ADAM_BETA1) * g
                    adam_v[n] *= ADAM_BETA2
                    adam_v[n] += (1.0 - ADAM_BETA2) * g * g
                    params[n] -= cfg.learning_rate * (adam_m[n] / correct1) / (
                        np.sqrt(adam_v[n] / correct2) + ADAM_EPS
                    )
            else:
                for n, g in grads.items():
                    params[n] -= cfg.learning_rate * g
        train_loss = running / len(X)
        val_loss = _eval_loss(model, Xv, Yv, cfg.batch_size) if Xv is not None else float("nan")
        history.append((epoch, train_loss, val_loss))
    return params, history


def predict_batch(spec: ArchitectureSpec, params: dict, windows, batch_size: int = 32) -> np.ndarray:
    """Model outputs for a stack of windows, shape (n, time)."""
    return Model(spec, params).predict(windows, batch_size)


def save_history_csv(history, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss"])
        for epoch, train_loss, val_loss in history:
            writer.writerow([epoch, repr(float(train_loss)), repr(float(val_loss))])
