"""Gated convolutional language model.

Residual blocks bracket a causal mid convolution with width-1 bottleneck
convolutions on both sides; every convolution is weight-normalized and gated
(GLU). Position t's output depends only on tokens at positions <= t, so the
model can score beam-search continuations incrementally; score rows are
memoized per history window in a bounded LRU cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acoustic import glu_dropout, glu_dropout_backward, init_wn_conv, wn_conv, wn_conv_backward
from .errors import ConfigurationError, DimensionError, TrainingDivergenceError
from .lm import LruCache, Vocabulary
from .optim import SgdOptimizer


@dataclass
class GcnnConfig:
    num_blocks: int = 4
    embed_dim: int = 128
    bottleneck_dim: int = 64
    mid_kernel_width: int = 5
    dropout_rate: float = 0.0
    context_limit: int | None = None

    def __post_init__(self):
        if min(self.num_blocks, self.embed_dim, self.bottleneck_dim) < 1:
            raise ConfigurationError("block count and dims must be >= 1")
        if self.mid_kernel_width % 2 == 0:
            raise ConfigurationError("mid kernel width must be odd")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigurationError("dropout_rate must be in [0, 1)")
        if self.context_limit is not None and self.context_limit < 1:
            raise ConfigurationError("context_limit must be >= 1 when set")

    @property
    def receptive_field(self) -> int:
        return self.num_blocks * (self.mid_kernel_width - 1) + 1


class GcnnLm:
    """Token-level LM implementing the shared scoring protocol."""

    def __init__(
        self,
        vocab: Vocabulary,
        config: GcnnConfig | None = None,
        rng: np.random.Generator | None = None,
        params: dict[str, np.ndarray] | None = None,
        cache_capacity: int = 4096,
    ):
        self.vocab = vocab
        self.config = config or GcnnConfig()
        self.params = params if params is not None else self._init_params(
            rng or np.random.default_rng(0)
        )
        self._row_cache = LruCache(cache_capacity)

    def _init_params(self, rng) -> dict[str, np.ndarray]:
        cfg = self.config
        v_size, e, b = len(self.vocab), cfg.embed_dim, cfg.bottleneck_dim
        params = {"embed": rng.normal(0.0, 0.1, (v_size, e))}
        for i in range(cfg.num_blocks):
            for name, (c_out, c_in, kw) in {
                "down": (2 * b, e, 1),
                "mid": (2 * b, b, cfg.mid_kernel_width),
                "up": (2 * e, b, 1),
            }.items():
                init_wn_conv(params, f"block{i}_{name}", rng, c_out, c_in, kw)
        init_wn_conv(params, "out", rng, v_size, e, 1)
        return params

    # -- forward / backward --------------------------------------------------
    def forward(
        self,
        token_ids,
        training: bool = False,
        rng: np.random.Generator | None = None,
        want_cache: bool = False,
    ):
        """Per-position next-token log-probability rows, shape (len(ids), |V|)."""
        ids = np.asarray(token_ids, dtype=np.int64)
        if ids.ndim != 1 or ids.size == 0:
            raise DimensionError("token sequence must be a non-empty 1-d array")
        if ids.min() < 0 or ids.max() >= len(self.vocab):
            raise DimensionError("token id outside the vocabulary")
        if training and rng is None:
            rng = np.random.default_rng(0)
        cfg = self.config
        kw = cfg.mid_kernel_width
        h = self.params["embed"][ids].T  # (E, L)
        caches: list[tuple[dict, dict]] = []
        for i in range(cfg.num_blocks):
            out = h
            for name, pad_left in (("down", 0), ("mid", kw - 1), ("up", 0)):
                pre, conv_cache = wn_conv(self.params, f"block{i}_{name}", out,
                                          pad_left=pad_left, pad_right=0)
                out, glu_cache = glu_dropout(pre, cfg.dropout_rate, rng if training else None)
                caches.append((conv_cache, glu_cache))
            h = h + out
        logits, out_cache = wn_conv(self.params, "out", h, pad_left=0, pad_right=0)
        shifted = logits - logits.max(axis=0, keepdims=True)
        expo = np.exp(shifted)
        denom = expo.sum(axis=0, keepdims=True)
        log_rows = (shifted - np.log(denom)).T  # (L, V)
        if not want_cache:
            return log_rows
        cache = {"ids": ids, "convs": caches, "out": out_cache,
                 "softmax": expo / denom}
        return log_rows, cache

    def backward(self, cache: dict, d_rows: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients for every parameter given d(loss)/d(log rows)."""
        cfg = self.config
        d = np.asarray(d_rows).T  # (V, L)
        d = d - cache["softmax"] * d.sum(axis=0, keepdims=True)
        grads: dict[str, np.ndarray] = {}
        d_h = wn_conv_backward(self.params, cache["out"], d, grads)
        convs = cache["convs"]
        for i in reversed(range(cfg.num_blocks)):
            d_inner = d_h  # the block output feeds both the residual and the inner path
            for conv_cache, glu_cache in reversed(convs[3 * i : 3 * i + 3]):
                d_inner = wn_conv_backward(
                    self.params, conv_cache, glu_dropout_backward(glu_cache, d_inner), grads
                )
            d_h = d_h + d_inner
        d_embed = np.zeros_like(self.params["embed"])
        np.add.at(d_embed, cache["ids"], d_h.T)
        grads["embed"] = d_embed
        return grads

    # -- scoring protocol ------------------------------------------------------
    @property
    def window_size(self) -> int:
        limit = self.config.context_limit
        field = self.config.receptive_field
        return field if limit is None else min(field, limit)

    def start_state(self) -> tuple[int, ...]:
        return (self.vocab.begin_id,)[-self.window_size:]

    def _row(self, window: tuple[int, ...]) -> np.ndarray:
        if not window:
            window = (self.vocab.begin_id,)
        row = self._row_cache.get(window)
        if row is None:
            row = self.forward(np.asarray(window))[-1]
            self._row_cache.put(window, row)
        return row

    def score(self, state: tuple[int, ...], token_id: int):
        logp = float(self._row(state)[token_id])
        return logp, (state + (token_id,))[-self.window_size:]

    def score_window(self, window, token_id: int) -> float:
        trimmed = tuple(int(t) for t in window)[-self.window_size:]
        return float(self._row(trimmed)[token_id])

    def finish(self, state) -> float:
        return self.score(state, self.vocab.end_id)[0]

    def clear_cache(self):
        self._row_cache = LruCache(self._row_cache.capacity)


def sentence_nll(lm: GcnnLm, sentence_ids, training=False, rng=None, want_cache=False):
    """Negative log likelihood of one sentence including the end token."""
    v = lm.vocab
    seq = [v.begin_id, *sentence_ids, v.end_id]
    inputs = np.asarray(seq[:-1])
    targets = np.asarray(seq[1:])
    result = lm.forward(inputs, training=training, rng=rng, want_cache=want_cache)
    rows = result[0] if want_cache else result
    nll = -float(rows[np.arange(len(targets)), targets].sum())
    if want_cache:
        return nll, targets, result[1]
    return nll, targets


def train_gcnn(
    lm: GcnnLm,
    train_sentences,
    val_sentences=None,
    epochs: int = 10,
    lr: float = 0.5,
    momentum: float = 0.9,
    clip: float = 0.1,
    batch_size: int = 8,
    seed: int = 0,
    epoch_callback=None,
):
    """Nesterov-accelerated training on tokenized sentences.

    Minimizes mean next-token negative log likelihood with gradient-norm
    clipping. Returns a history of dicts with train/validation perplexity;
    `epoch_callback(epoch, lm, record)` runs after each epoch (checkpointing
    hook for the perplexity studies).
    """
    from .lm import perplexity  # local import to avoid a cycle at module load

    vocab = lm.vocab
    train_ids = [[vocab.id(t) for t in s] for s in train_sentences]
    if not train_ids:
        raise ConfigurationError("training corpus is empty")
    optimizer = SgdOptimizer(lr=lr, momentum=momentum, clip=clip, nesterov=True)
    rng = np.random.default_rng(seed)
    history = []
    for epoch in range(epochs):
        order = rng.permutation(len(train_ids))
        total_nll = 0.0
        total_tokens = 0
        for batch_start in range(0, len(order), batch_size):
            batch = order[batch_start : batch_start + batch_size]
            grads_acc: dict[str, np.ndarray] = {}
            batch_tokens = sum(len(train_ids[j]) + 1 for j in batch)
            for j in batch:
                nll, targets, cache = sentence_nll(
                    lm, train_ids[j], training=lm.config.dropout_rate > 0.0,
                    rng=rng, want_cache=True,
                )
                if not np.isfinite(nll):
                    raise TrainingDivergenceError(f"non-finite loss at epoch {epoch}")
                total_nll += nll
                total_tokens += len(targets)
                d_rows = np.zeros((len(targets), len(vocab)))
                d_rows[np.arange(len(targets)), targets] = -1.0 / batch_tokens
                for key, g in lm.backward(cache, d_rows).items():
                    if key in grads_acc:
                        grads_acc[key] += g
                    else:
                        grads_acc[key] = g
            optimizer.step(lm.params, grads_acc)
        lm.clear_cache()
        record = {
            "epoch": epoch,
            "lr": optimizer.lr,
            "train_ppl": float(np.exp(total_nll / total_tokens)),
        }
        if val_sentences:
            record["val_ppl"] = perplexity(lm, val_sentences)
        history.append(record)
        if epoch_callback is not None:
            epoch_callback(epoch, lm, record)
    return history
