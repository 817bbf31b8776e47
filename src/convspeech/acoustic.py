"""Conv-GLU acoustic model with weight normalization and exact backprop.

The network stacks 1-D convolution -> gated linear unit -> dropout blocks and
ends in a width-1 projection to per-letter scores. All gradients are
hand-derived; `tests/` checks every tensor against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError
from .util import check_params


@dataclass
class ConvLayerSpec:
    in_channels: int
    out_channels: int  # post-GLU channels; the conv emits twice as many
    kernel_width: int
    dropout_rate: float = 0.0

    def __post_init__(self):
        if min(self.in_channels, self.out_channels, self.kernel_width) < 1:
            raise ConfigurationError("layer counts and widths must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigurationError("dropout_rate must be in [0, 1)")


@dataclass
class AcousticModelConfig:
    layers: list[ConvLayerSpec]
    alphabet_size: int

    def __post_init__(self):
        if not self.layers:
            raise ConfigurationError("layers must hold at least one conv-GLU layer")
        if self.alphabet_size < 2:
            raise ConfigurationError("alphabet must have at least 2 letters")
        for prev, cur in zip(self.layers, self.layers[1:]):
            if prev.out_channels != cur.in_channels:
                raise ConfigurationError(
                    f"layer emits {prev.out_channels} channels but next expects {cur.in_channels}"
                )


@dataclass
class EmissionTable:
    """Per-frame, per-letter acoustic scores (T x |A|)."""

    scores: np.ndarray

    @property
    def num_frames(self) -> int:
        return self.scores.shape[0]


def glu(pre_activation: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gated linear unit over the channel axis: (a * sigmoid(b), sigmoid(b))."""
    channels = pre_activation.shape[0]
    if channels % 2:
        raise ConfigurationError(f"GLU needs an even channel count, got {channels}")
    half = channels // 2
    gate = _sigmoid(pre_activation[half:])
    return pre_activation[:half] * gate, gate


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def glu_backward(a: np.ndarray, gate: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the pre-activation given the cached half/gate pair."""
    return np.concatenate([d_out * gate, d_out * a * gate * (1.0 - gate)], axis=0)


def glu_dropout(pre: np.ndarray, dropout_rate: float, rng: np.random.Generator | None):
    """GLU, then inverted dropout when `rng` is given; returns (output, cache)."""
    out, gate = glu(pre)
    mask = None
    if rng is not None and dropout_rate > 0.0:
        keep = 1.0 - dropout_rate
        mask = (rng.random(out.shape) < keep) / keep
        out = out * mask
    return out, {"a": pre[: gate.shape[0]], "gate": gate, "mask": mask}


def glu_dropout_backward(cache: dict, d_out: np.ndarray) -> np.ndarray:
    """Gradient of glu_dropout w.r.t. its pre-activation."""
    if cache["mask"] is not None:
        d_out = d_out * cache["mask"]
    return glu_backward(cache["a"], cache["gate"], d_out)


def effective_weight(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Weight-norm reparameterization: w_o = g_o * v_o / ||v_o||."""
    norms = np.sqrt((v.reshape(v.shape[0], -1) ** 2).sum(axis=1))
    return v * (g / norms)[:, None, None]


def weight_norm_backward(v: np.ndarray, g: np.ndarray, d_w: np.ndarray):
    flat_v = v.reshape(v.shape[0], -1)
    flat_dw = d_w.reshape(d_w.shape[0], -1)
    norms = np.sqrt((flat_v**2).sum(axis=1))
    dot = (flat_dw * flat_v).sum(axis=1)
    d_g = dot / norms
    d_v = (g / norms)[:, None] * flat_dw - (g * dot / norms**3)[:, None] * flat_v
    return d_v.reshape(v.shape), d_g


def conv1d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    pad_left: int | None = None,
    pad_right: int | None = None,
):
    """1-D cross-correlation at stride 1; returns (out, cache for conv1d_backward).

    x: (C_in, T), weight: (C_out, C_in, K). Default padding is floor(K/2) on
    each side, preserving frame alignment.
    """
    c_out, c_in_w, kw = weight.shape
    if x.shape[0] != c_in_w:
        raise DimensionError(f"input has {x.shape[0]} channels, weight expects {c_in_w}")
    if pad_left is None:
        pad_left = kw // 2
    if pad_right is None:
        pad_right = kw // 2
    t_in = x.shape[1]
    padded = np.zeros((c_in_w, t_in + pad_left + pad_right))
    padded[:, pad_left : pad_left + t_in] = x
    t_out = padded.shape[1] - kw + 1
    if t_out < 1:
        raise DimensionError(f"{t_in} frames too few for kernel width {kw}")
    cols = np.lib.stride_tricks.sliding_window_view(padded, kw, axis=1)
    cols = cols.transpose(1, 0, 2).reshape(t_out, c_in_w * kw)
    out = (cols @ weight.reshape(c_out, -1).T + bias).T
    cache = {
        "cols": cols,
        "weight": weight,
        "pad_left": pad_left,
        "t_in": t_in,
        "padded_len": padded.shape[1],
    }
    return out, cache


def conv1d_backward(cache: dict, d_out: np.ndarray):
    """Gradients of conv1d w.r.t. weight, bias and input."""
    weight = cache["weight"]
    c_out, c_in, kw = weight.shape
    t_out = d_out.shape[1]
    d_weight = (d_out @ cache["cols"]).reshape(c_out, c_in, kw)
    d_bias = d_out.sum(axis=1)
    d_cols = weight.reshape(c_out, -1).T @ d_out  # (c_in*kw, t_out)
    d_cols = d_cols.reshape(c_in, kw, t_out)
    d_padded = np.zeros((c_in, cache["padded_len"]))
    for w in range(kw):  # the t_out positions of one tap are distinct
        d_padded[:, w : w + t_out] += d_cols[:, w, :]
    pl = cache["pad_left"]
    return d_weight, d_bias, d_padded[:, pl : pl + cache["t_in"]]


def init_wn_conv(params: dict, name: str, rng: np.random.Generator,
                 c_out: int, c_in: int, kernel_width: int):
    """Add `{name}_v` ~ N(0, 1/(c_in*K)), `{name}_g` = ||v_o|| and a zero `{name}_b`."""
    v = rng.normal(0.0, 1.0 / np.sqrt(c_in * kernel_width), (c_out, c_in, kernel_width))
    params[f"{name}_v"] = v
    params[f"{name}_g"] = np.sqrt((v.reshape(c_out, -1) ** 2).sum(axis=1))
    params[f"{name}_b"] = np.zeros(c_out)


def wn_conv_shapes(name: str, c_out: int, c_in: int, kernel_width: int) -> dict[str, tuple]:
    """Shapes of the three arrays init_wn_conv adds for `name`."""
    return {f"{name}_v": (c_out, c_in, kernel_width), f"{name}_g": (c_out,), f"{name}_b": (c_out,)}


def wn_conv(params: dict, name: str, x: np.ndarray,
            pad_left: int | None = None, pad_right: int | None = None):
    """conv1d with the weight-normed parameters `{name}_v/_g/_b`; returns (out, cache)."""
    w = effective_weight(params[f"{name}_v"], params[f"{name}_g"])
    out, cache = conv1d(x, w, params[f"{name}_b"], pad_left, pad_right)
    cache["name"] = name
    return out, cache


def wn_conv_backward(params: dict, cache: dict, d_out: np.ndarray, grads: dict) -> np.ndarray:
    """Store the `{name}_v/_g/_b` gradients in `grads`; return the input gradient."""
    name = cache["name"]
    d_w, d_b, d_x = conv1d_backward(cache, d_out)
    grads[f"{name}_v"], grads[f"{name}_g"] = weight_norm_backward(
        params[f"{name}_v"], params[f"{name}_g"], d_w
    )
    grads[f"{name}_b"] = d_b
    return d_x


class AcousticModel:
    """(channels, frames) features in, emission tables out, with exact parameter gradients.

    Parameters are a flat dict: layer{i}_v / layer{i}_g / layer{i}_b for each
    conv-GLU block and proj_v / proj_g / proj_b for the final width-1
    projection to letter scores.
    """

    def __init__(
        self,
        config: AcousticModelConfig,
        rng: np.random.Generator | None = None,
        params: dict[str, np.ndarray] | None = None,
    ):
        self.config = config
        if params is None:
            params = self._init_params(rng or np.random.default_rng(0))
        else:
            check_params(params, self.param_shapes(config), "acoustic model")
        self.params = params

    @staticmethod
    def _conv_layers(config: AcousticModelConfig):
        """(name, c_out, c_in, kernel width) of every weight-normed conv, in init order."""
        for i, spec in enumerate(config.layers):
            yield f"layer{i}", 2 * spec.out_channels, spec.in_channels, spec.kernel_width
        yield "proj", config.alphabet_size, config.layers[-1].out_channels, 1

    @staticmethod
    def param_shapes(config: AcousticModelConfig) -> dict[str, tuple]:
        """Every parameter array a model of this config holds, with its shape."""
        shapes = {}
        for layer in AcousticModel._conv_layers(config):
            shapes |= wn_conv_shapes(*layer)
        return shapes

    def _init_params(self, rng) -> dict[str, np.ndarray]:
        params: dict[str, np.ndarray] = {}
        for name, c_out, c_in, kw in self._conv_layers(self.config):
            init_wn_conv(params, name, rng, c_out, c_in, kw)
        return params

    def forward(
        self,
        features: np.ndarray,
        training: bool = False,
        rng: np.random.Generator | None = None,
        want_cache: bool = False,
    ):
        h = np.asarray(features)
        if h.shape[0] != self.config.layers[0].in_channels:
            raise DimensionError(
                f"features have {h.shape[0]} channels, model expects "
                f"{self.config.layers[0].in_channels}"
            )
        if training and rng is None:
            rng = np.random.default_rng(0)
        layer_caches = []
        for i, spec in enumerate(self.config.layers):
            pre, conv_cache = wn_conv(self.params, f"layer{i}", h)
            h, glu_cache = glu_dropout(pre, spec.dropout_rate, rng if training else None)
            layer_caches.append((conv_cache, glu_cache))
        scores_ct, proj_cache = wn_conv(self.params, "proj", h)
        emissions = EmissionTable(scores_ct.T.copy())
        if not want_cache:
            return emissions
        return emissions, {"layers": layer_caches, "proj": proj_cache}

    def backward(self, cache: dict, d_scores: np.ndarray):
        """Backprop from d(loss)/d(emissions) of shape (T, |A|).

        Returns (parameter gradient dict, gradient w.r.t. the input feature
        map) so training can continue into a learnable front-end.
        """
        d = np.asarray(d_scores).T  # (A, T)
        expected = (self.config.alphabet_size, cache["proj"]["cols"].shape[0])
        if d.shape != expected:
            raise DimensionError(
                f"upstream gradient shape {d_scores.shape} does not match emissions "
                f"{expected[::-1]}"
            )
        grads: dict[str, np.ndarray] = {}
        d = wn_conv_backward(self.params, cache["proj"], d, grads)
        for conv_cache, glu_cache in reversed(cache["layers"]):
            d = wn_conv_backward(self.params, conv_cache, glu_dropout_backward(glu_cache, d), grads)
        return grads, d
