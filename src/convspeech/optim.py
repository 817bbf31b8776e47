"""Gradient-descent machinery shared by the acoustic model and the conv LM."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, TrainingDivergenceError


def global_norm(grads: dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float((g**2).sum()) for g in grads.values())))


def clip_gradients(grads: dict[str, np.ndarray], clip: float) -> tuple[dict, float]:
    """Rescale so the global norm is at most `clip`. Returns (grads, norm before)."""
    norm = global_norm(grads)
    if not np.isfinite(norm):
        raise TrainingDivergenceError(f"non-finite gradient norm {norm}")
    if norm > clip:
        scale = clip / norm
        grads = {k: g * scale for k, g in grads.items()}
    return grads, norm


@dataclass(frozen=True)
class TrainSettings:
    """One training run's loop sizes and SGD settings, checked when built."""

    epochs: int = 15
    lr: float = 0.2
    momentum: float = 0.9
    clip: float = 0.2
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigurationError(f"batch size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:  # 0 is valid and leaves the model untrained
            raise ConfigurationError(f"epochs must be >= 0, got {self.epochs}")
        if not 0 <= self.lr < np.inf:
            raise ConfigurationError("learning rate must be finite and non-negative")
        if not self.clip > 0:  # +inf: never clip
            raise ConfigurationError("clip must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError("momentum must be in [0, 1)")


class SgdOptimizer:
    """SGD with momentum and global gradient clipping, set by a `TrainSettings`.

    Classical momentum by default (m <- mu*m + g; p <- p - lr*m); with
    nesterov=True the update applies the lookahead form
    p <- p - lr*(g + mu*m) after the buffer update.
    """

    def __init__(self, settings: TrainSettings, nesterov: bool = False):
        self.lr = settings.lr  # run_epochs sets it before each step
        self.momentum = settings.momentum
        self.clip = settings.clip
        self.nesterov = nesterov
        self.buffers: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> float:
        """Update `params` in place; returns the global gradient norm before clipping."""
        grads, norm = clip_gradients(grads, self.clip)
        for key, p in params.items():
            g = grads[key]
            buf = self.buffers.get(key)
            if buf is None:
                buf = np.zeros_like(p)
                self.buffers[key] = buf
            buf *= self.momentum
            buf += g
            if self.nesterov:
                p -= self.lr * (g + self.momentum * buf)
            else:
                p -= self.lr * buf
        return norm


def run_epochs(params, optimizer: SgdOptimizer, settings: TrainSettings, rng, num_items: int,
               batch, end_epoch, epoch_callback=None) -> list[dict]:
    """The epoch loop of both trainers; returns the history, one record per epoch.

    An epoch steps once per `settings.batch_size` items of a permutation drawn
    from `rng`, a short last batch included. The learning rate decays linearly
    to zero over the run: step s of S runs at `settings.lr * (1 - s / S)`, and
    a record's `lr` is the one of its epoch's first step. `batch(indices)`
    returns (losses, gradients), the losses in the order the epoch's sum takes
    them; a non-finite sum stops the run before its step. `end_epoch(sum)`
    returns the record's train and dev fields, and `epoch_callback(record)`
    runs once the record is in the history.
    """
    history = []
    total_steps = settings.epochs * math.ceil(num_items / settings.batch_size)
    step = 0
    for epoch in range(settings.epochs):
        order = rng.permutation(num_items)
        total, norms = 0.0, []
        first_step = step
        for start in range(0, num_items, settings.batch_size):
            losses, grads = batch(order[start : start + settings.batch_size])
            for loss in losses:
                total += loss
            if not np.isfinite(total):
                raise TrainingDivergenceError(f"non-finite loss at epoch {epoch}")
            optimizer.lr = settings.lr * (1.0 - step / total_steps)
            norms.append(optimizer.step(params, grads))
            step += 1
            del grads  # freed before the next batch runs: lower peak memory
        train, dev = end_epoch(total)
        record = {"epoch": epoch, "lr": settings.lr * (1.0 - first_step / total_steps), **train,
                  "grad_norm": float(np.mean(norms)),
                  "clip_frac": float(np.mean(np.asarray(norms) > settings.clip)), **dev}
        history.append(record)
        if epoch_callback is not None:
            epoch_callback(record)
    return history
