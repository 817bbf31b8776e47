"""Gated convolutional language model.

Residual blocks bracket a causal mid convolution with width-1 bottleneck
convolutions on both sides; every convolution is weight-normalized and gated
(GLU). Position t's output depends only on tokens at positions <= t, so the
model can score beam-search continuations incrementally.

GcnnLm implements the LM protocol of `lm.py` (start_state, score, vocab). A
state is a tuple of token ids; `score` reads only its last `receptive_field`
tokens, the whole context the network can see, and memoizes one score row per
such window in a bounded LRU cache.

The convolutions are the shared weight-normed convs of `acoustic.py`, declared
once in `GcnnLm._conv_layers`; like every conv there they keep the column
count. The mid convolution is causal: it passes `pad_left = K - 1`, so column t
reads columns t - K + 1 .. t. The width-1 convolutions need no padding.

`forward` scores a batch of sequences in one pass. The sequences sit side by
side in one (channels, columns) block, with `mid_kernel_width - 1` zero gap
columns between neighbours; the first one gets its gap from the causal conv's
own left padding. Width-1 convolutions leave gap columns to themselves, and
the input of every causal mid convolution is multiplied by a 0/1 mask of the
real columns, so what a gap column holds never reaches a real one: every
sequence is scored as if it were alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acoustic import (check_wn_directions, conv_glu, conv_glu_backward, init_wn_convs, wn_conv,
                       wn_conv_backward, wn_conv_shapes)
from .errors import ConfigurationError, DimensionError
from .lm import LruCache, Vocabulary
from .optim import SgdOptimizer, TrainSettings, run_epochs
from .util import check_params

ROW_CACHE_CAPACITY = 4096  # score rows kept per model, one per context window


@dataclass
class GcnnConfig:
    num_blocks: int = 4
    embed_dim: int = 128
    bottleneck_dim: int = 64
    mid_kernel_width: int = 5
    dropout_rate: float = 0.0

    def __post_init__(self):
        if min(self.num_blocks, self.embed_dim, self.bottleneck_dim) < 1:
            raise ConfigurationError("block count and dims must be >= 1")
        if self.mid_kernel_width % 2 == 0:
            raise ConfigurationError("mid kernel width must be odd")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigurationError("dropout_rate must be in [0, 1)")

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
    ):
        self.vocab = vocab
        self.config = config or GcnnConfig()
        if params is None:
            rng = rng or np.random.default_rng(0)
            params = {"embed": rng.normal(0.0, 0.1, (len(vocab), self.config.embed_dim))}
            params |= init_wn_convs(self._conv_layers(self.config, len(vocab)), rng)
        else:
            check_params(params, self.param_shapes(self.config, len(vocab)), "conv LM")
            check_wn_directions(params, self._conv_layers(self.config, len(vocab)), "conv LM")
        self.params = params
        self._row_cache = LruCache(ROW_CACHE_CAPACITY)

    @staticmethod
    def _conv_layers(config: GcnnConfig, vocab_size: int):
        """(name, c_out, c_in, kernel width) of every weight-normed conv, in init order."""
        e, b = config.embed_dim, config.bottleneck_dim
        for i in range(config.num_blocks):
            yield f"block{i}_down", 2 * b, e, 1
            yield f"block{i}_mid", 2 * b, b, config.mid_kernel_width
            yield f"block{i}_up", 2 * e, b, 1
        yield "out", vocab_size, e, 1

    @staticmethod
    def param_shapes(config: GcnnConfig, vocab_size: int) -> dict[str, tuple]:
        """Every parameter array an LM of this config and vocabulary size holds, with its shape."""
        shapes = {"embed": (vocab_size, config.embed_dim)}
        return shapes | wn_conv_shapes(GcnnLm._conv_layers(config, vocab_size))

    # -- forward / backward --------------------------------------------------
    def forward(
        self,
        token_ids,
        lengths=None,
        rng: np.random.Generator | None = None,
        want_cache: bool = False,
    ):
        """Per-position next-token log-probability rows, shape (len(ids), |V|).

        `token_ids` is one sequence, or several concatenated with their
        `lengths`; the rows come back in input order, each sequence's computed
        as if it stood alone. With a dropout rate, `rng` draws the masks.
        """
        ids = np.asarray(token_ids, dtype=np.int64)
        if ids.ndim != 1 or ids.size == 0:
            raise DimensionError("token sequence must be a non-empty 1-d array")
        if ids.min() < 0 or ids.max() >= len(self.vocab):
            raise DimensionError("token id outside the vocabulary")
        lengths = np.asarray([ids.size] if lengths is None else lengths, dtype=np.int64)
        if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1 or lengths.sum() != ids.size:
            raise DimensionError(
                f"sequence lengths {lengths.tolist()} must be >= 1 and sum to {ids.size}")
        cfg = self.config
        gap = cfg.mid_kernel_width - 1
        # column of each token in the block: every sequence after the first
        # starts `gap` columns after the end of the one before
        real = np.arange(ids.size) + gap * np.repeat(np.arange(lengths.size), lengths)
        mask = np.zeros(ids.size + gap * (lengths.size - 1))
        mask[real] = 1.0
        h = np.zeros((cfg.embed_dim, mask.size))
        h[:, real] = self.params["embed"][ids].T
        rate = cfg.dropout_rate
        caches = []  # per block: the down, mid and up conv-GLU caches
        for i in range(cfg.num_blocks):
            down, c_down = conv_glu(self.params, f"block{i}_down", h, rate, rng)
            mid, c_mid = conv_glu(self.params, f"block{i}_mid", down * mask, rate, rng, gap)
            up, c_up = conv_glu(self.params, f"block{i}_up", mid, rate, rng)
            h = h + up
            caches += [c_down, c_mid, c_up]
        logits, out_cache = wn_conv(self.params, "out", h[:, real])
        shifted = logits - logits.max(axis=0, keepdims=True)
        expo = np.exp(shifted)
        denom = expo.sum(axis=0, keepdims=True)
        log_rows = (shifted - np.log(denom)).T  # (L, V)
        if not want_cache:
            return log_rows
        cache = {"ids": ids, "real": real, "mask": mask, "convs": caches, "out": out_cache,
                 "softmax": expo / denom}
        return log_rows, cache

    def backward(self, cache: dict, d_rows: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients for every parameter given d(loss)/d(log rows)."""
        d = np.asarray(d_rows).T  # (V, L)
        d = d - cache["softmax"] * d.sum(axis=0, keepdims=True)
        grads: dict[str, np.ndarray] = {}
        d_real = wn_conv_backward(self.params, cache["out"], d, grads)
        real, mask, convs = cache["real"], cache["mask"], cache["convs"]
        d_h = np.zeros((d_real.shape[0], mask.size))
        d_h[:, real] = d_real
        for i in reversed(range(self.config.num_blocks)):
            down, mid, up = convs[3 * i : 3 * i + 3]
            # the block output feeds both the residual and the inner path
            d_mid = conv_glu_backward(self.params, up, d_h, grads)
            d_down = conv_glu_backward(self.params, mid, d_mid, grads) * mask
            d_h = d_h + conv_glu_backward(self.params, down, d_down, grads)
        d_embed = np.zeros_like(self.params["embed"])
        np.add.at(d_embed, cache["ids"], d_h[:, real].T)
        grads["embed"] = d_embed
        return grads

    # -- scoring protocol ------------------------------------------------------
    def start_state(self) -> tuple[int, ...]:
        return (self.vocab.begin_id,)

    def _row(self, window: tuple[int, ...]) -> np.ndarray:
        if not window:
            window = (self.vocab.begin_id,)
        row = self._row_cache.get(window)
        if row is None:
            row = self.forward(np.asarray(window))[-1]
            self._row_cache.put(window, row)
        return row

    def score(self, state: tuple[int, ...], token_id: int):
        field = self.config.receptive_field
        logp = float(self._row(state[-field:])[token_id])
        return logp, (state + (token_id,))[-field:]

    def clear_cache(self):
        self._row_cache = LruCache(ROW_CACHE_CAPACITY)


def batch_nll(lm: GcnnLm, sentences, rng=None, want_cache=False):
    """Summed negative log likelihood of token-id sentences, end tokens included.

    One forward pass scores the whole batch. Returns (nll, targets) or, with
    `want_cache`, (nll, targets, cache); `targets` holds every sentence's next
    tokens, concatenated in the order of the forward rows.
    """
    v = lm.vocab
    inputs = np.concatenate([[v.begin_id, *s] for s in sentences])
    targets = np.concatenate([[*s, v.end_id] for s in sentences])
    result = lm.forward(inputs, [len(s) + 1 for s in sentences], rng=rng, want_cache=want_cache)
    rows = result[0] if want_cache else result
    nll = -float(rows[np.arange(len(targets)), targets].sum())
    return (nll, targets, result[1]) if want_cache else (nll, targets)


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
    """Nesterov-accelerated training on tokenized sentences, by `optim.run_epochs`.

    Minimizes mean next-token negative log likelihood with gradient-norm
    clipping, one batched forward and backward per step; validation uses the
    same batched pass. Each record holds `train_ppl`, and `val_ppl` with a
    validation corpus, beside the loop's shared fields.
    `epoch_callback(epoch, lm, record)` runs after each epoch (checkpointing
    hook for the perplexity studies).
    """
    settings = TrainSettings(epochs=epochs, lr=lr, momentum=momentum, clip=clip,
                             batch_size=batch_size, seed=seed)
    vocab = lm.vocab
    train_ids = [[vocab.id(t) for t in s] for s in train_sentences]
    if not train_ids:
        raise ConfigurationError("training corpus is empty")
    val_ids = [[vocab.id(t) for t in s] for s in val_sentences or ()]
    if val_sentences is not None and not val_ids:
        raise ConfigurationError("validation corpus is empty")
    rng = np.random.default_rng(seed)

    def batch(indices):
        nll, targets, cache = batch_nll(lm, [train_ids[j] for j in indices], rng=rng,
                                        want_cache=True)
        d_rows = np.zeros((len(targets), len(vocab)))
        d_rows[np.arange(len(targets)), targets] = -1.0 / len(targets)
        return [nll], lm.backward(cache, d_rows)

    def end_epoch(train_nll):
        lm.clear_cache()
        train = {"train_ppl": float(np.exp(train_nll / sum(len(s) + 1 for s in train_ids)))}
        if not val_ids:
            return train, {}
        val_nll = sum(batch_nll(lm, val_ids[k : k + batch_size])[0]
                      for k in range(0, len(val_ids), batch_size))
        return train, {"val_ppl": float(np.exp(val_nll / sum(len(s) + 1 for s in val_ids)))}

    return run_epochs(lm.params, SgdOptimizer(settings, nesterov=True), settings, rng,
                      len(train_ids), batch, end_epoch,
                      epoch_callback and (lambda r: epoch_callback(r["epoch"], lm, r)))
