"""Gated convolutional language model.

Residual blocks bracket a causal mid convolution with width-1 bottleneck
convolutions on both sides; every convolution is weight-normalized and gated
(GLU). Position t's output depends only on tokens at positions <= t, so the
model can score beam-search continuations incrementally.

GcnnLm implements the LM protocol of `lm.py` (start_state, score, finish,
vocab). A state is a tuple of token ids; `score` reads only its last
`receptive_field` tokens, the whole context the network can see, and memoizes
one score row per such window in a bounded LRU cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acoustic import glu_dropout, glu_dropout_backward, init_wn_conv, wn_conv, wn_conv_backward
from .errors import ConfigurationError, DimensionError, TrainingDivergenceError
from .lm import LruCache, Vocabulary
from .optim import SgdOptimizer

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
            params = self._init_params(rng or np.random.default_rng(0))
        else:
            self._check_params(params)
        self.params = params
        self._row_cache = LruCache(ROW_CACHE_CAPACITY)

    def _conv_layers(self):
        """(name, c_out, c_in, kernel width) of every weight-normed conv, in init order."""
        cfg = self.config
        e, b = cfg.embed_dim, cfg.bottleneck_dim
        for i in range(cfg.num_blocks):
            yield f"block{i}_down", 2 * b, e, 1
            yield f"block{i}_mid", 2 * b, b, cfg.mid_kernel_width
            yield f"block{i}_up", 2 * e, b, 1
        yield "out", len(self.vocab), e, 1

    def _init_params(self, rng) -> dict[str, np.ndarray]:
        params = {"embed": rng.normal(0.0, 0.1, (len(self.vocab), self.config.embed_dim))}
        for name, c_out, c_in, kw in self._conv_layers():
            init_wn_conv(params, name, rng, c_out, c_in, kw)
        return params

    def _check_params(self, params: dict[str, np.ndarray]):
        """Every array the config and vocabulary call for must be there, at its shape."""
        shapes = {"embed": (len(self.vocab), self.config.embed_dim)}
        for name, c_out, c_in, kw in self._conv_layers():
            shapes |= {f"{name}_v": (c_out, c_in, kw), f"{name}_g": (c_out,), f"{name}_b": (c_out,)}
        for key, shape in shapes.items():
            if key not in params:
                raise ConfigurationError(f"conv LM parameters lack array {key!r}")
            if params[key].shape != shape:
                raise ConfigurationError(
                    f"conv LM array {key!r} has shape {params[key].shape}, not {shape}")

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

    def finish(self, state) -> float:
        return self.score(state, self.vocab.end_id)[0]

    def clear_cache(self):
        self._row_cache = LruCache(ROW_CACHE_CAPACITY)


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
