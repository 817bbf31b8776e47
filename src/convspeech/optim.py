"""Gradient-descent machinery shared by the acoustic model and the conv LM."""

from __future__ import annotations

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


def check_training_sizes(epochs: int, batch_size: int):
    """Both trainers' loop sizes; 0 epochs is valid and leaves the model untrained."""
    if batch_size < 1:
        raise ConfigurationError(f"batch size must be >= 1, got {batch_size}")
    if epochs < 0:
        raise ConfigurationError(f"epochs must be >= 0, got {epochs}")


class SgdOptimizer:
    """SGD with momentum and global gradient clipping.

    Classical momentum by default (m <- mu*m + g; p <- p - lr*m); with
    nesterov=True the update applies the lookahead form
    p <- p - lr*(g + mu*m) after the buffer update.
    """

    def __init__(self, lr: float, momentum: float = 0.9, clip: float = 0.2,
                 nesterov: bool = False):
        if not 0 <= lr < np.inf:
            raise ConfigurationError("learning rate must be finite and non-negative")
        if not clip > 0:  # +inf: never clip
            raise ConfigurationError("clip must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError("momentum must be in [0, 1)")
        self.lr = lr
        self.momentum = momentum
        self.clip = clip
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


PLATEAU_FACTOR = 0.5  # lr multiplier once the loss has stalled
PLATEAU_PATIENCE = 2  # stale updates tolerated before the cut
MIN_LR = 1e-6  # the cuts stop here


class PlateauScheduler:
    """Halve the learning rate when validation loss stops improving."""

    def __init__(self, optimizer: SgdOptimizer):
        self.optimizer = optimizer
        self.best = np.inf
        self.stale = 0

    def update(self, validation_loss: float) -> float:
        if validation_loss < self.best - 1e-12:
            self.best = validation_loss
            self.stale = 0
        else:
            self.stale += 1
            if self.stale > PLATEAU_PATIENCE:
                self.optimizer.lr = max(self.optimizer.lr * PLATEAU_FACTOR, MIN_LR)
                self.stale = 0
        return self.optimizer.lr
