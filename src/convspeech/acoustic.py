"""Conv-GLU acoustic model with weight normalization and exact backprop.

The network stacks 1-D convolution -> gated linear unit -> dropout blocks and
ends in a width-1 projection to per-letter scores. Every convolution keeps its
frame count (`conv1d`), so a model emits one row per feature frame whatever its
kernel widths: a width-K kernel is centred, reaching K // 2 frames back and
K - 1 - K // 2 ahead (for even K, K/2 back and K/2 - 1 ahead). A model declares
its weight-normed convolutions once, as a list of (name, c_out, c_in, K) that
`init_wn_convs` draws and `wn_conv_shapes` checks; the conv LM of `gcnn.py`
builds on the same helpers. All gradients are hand-derived; `tests/` checks
every tensor against finite differences.
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
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, from one e = exp(-|x|)."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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


def conv1d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, pad_left: int | None = None):
    """1-D cross-correlation at stride 1 that keeps the frame count; returns
    (out, cache for conv1d_backward).

    x: (C_in, T), weight: (C_out, C_in, K), out: (C_out, T). `pad_left` zero
    columns go before x (K // 2 by default) and K - 1 - pad_left after it, so
    output column t reads input frames t - pad_left .. t - pad_left + K - 1.
    The (T, C_in * K) windows are a strided view of the padded input, reshaped
    into a copy; at width 1 that is the transpose of a copy of x.
    """
    c_out, c_in_w, kw = weight.shape
    if x.shape[0] != c_in_w:
        raise DimensionError(f"input has {x.shape[0]} channels, weight expects {c_in_w}")
    if pad_left is None:
        pad_left = kw // 2
    if not 0 <= pad_left < kw:
        raise DimensionError(f"pad_left {pad_left} outside 0 .. {kw - 1} for width {kw}")
    t = x.shape[1]
    if t < 1:
        raise DimensionError("conv input has no frames")
    if kw == 1:
        cols = x.copy().T
    else:
        padded = np.zeros((c_in_w, t + kw - 1))
        padded[:, pad_left : pad_left + t] = x
        row, step = padded.strides
        cols = np.lib.stride_tricks.as_strided(padded, (t, c_in_w, kw), (step, row, step))
        cols = cols.reshape(t, -1)
    out = (cols @ weight.reshape(c_out, -1).T + bias).T
    return out, {"cols": cols, "weight": weight, "pad_left": pad_left}


def conv1d_backward(cache: dict, d_out: np.ndarray):
    """Gradients of conv1d w.r.t. weight, bias and input."""
    weight = cache["weight"]
    c_out, c_in, kw = weight.shape
    t = d_out.shape[1]
    d_weight = (d_out @ cache["cols"]).reshape(c_out, c_in, kw)
    d_bias = d_out.sum(axis=1)
    d_cols = weight.reshape(c_out, -1).T @ d_out  # (c_in*kw, t)
    d_cols = d_cols.reshape(c_in, kw, t)
    if kw == 1:  # as the loop below would add it into zeros, zero signs included
        return d_weight, d_bias, d_cols[:, 0, :] + 0.0
    d_padded = np.zeros((c_in, t + kw - 1))
    for w in range(kw):  # the t positions of one tap are distinct
        d_padded[:, w : w + t] += d_cols[:, w, :]
    pl = cache["pad_left"]
    return d_weight, d_bias, d_padded[:, pl : pl + t]


def init_wn_convs(layers, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Parameters of the weight-normed convs `layers`, (name, c_out, c_in, K) each,
    drawn in order: `{name}_v` ~ N(0, 1/(c_in*K)), `{name}_g` = ||v_o||, a zero `{name}_b`."""
    params = {}
    for name, c_out, c_in, kw in layers:
        v = rng.normal(0.0, 1.0 / np.sqrt(c_in * kw), (c_out, c_in, kw))
        params[f"{name}_v"] = v
        params[f"{name}_g"] = np.sqrt((v.reshape(c_out, -1) ** 2).sum(axis=1))
        params[f"{name}_b"] = np.zeros(c_out)
    return params


def wn_conv_shapes(layers) -> dict[str, tuple]:
    """Shapes of the arrays init_wn_convs makes for `layers`."""
    shapes = {}
    for name, c_out, c_in, kw in layers:
        shapes |= {f"{name}_v": (c_out, c_in, kw), f"{name}_g": (c_out,), f"{name}_b": (c_out,)}
    return shapes


def check_wn_directions(params: dict, layers, owner: str):
    """Refuse a `{name}_v` of the convs `layers` with an output row of norm 0,
    which weight norm would divide by; errors name `owner`, the array and the row."""
    for name, *_ in layers:
        v = np.asarray(params[f"{name}_v"])
        zero = np.flatnonzero((v.reshape(v.shape[0], -1) ** 2).sum(axis=1) == 0.0)
        if zero.size:
            raise ConfigurationError(f"{owner} array '{name}_v' row {zero[0]} has norm 0")


def wn_conv(params: dict, name: str, x: np.ndarray, pad_left: int | None = None):
    """conv1d with the weight-normed parameters `{name}_v/_g/_b`; returns (out, cache)."""
    w = effective_weight(params[f"{name}_v"], params[f"{name}_g"])
    out, cache = conv1d(x, w, params[f"{name}_b"], pad_left)
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


def conv_glu(params: dict, name: str, x: np.ndarray, dropout_rate: float,
             rng: np.random.Generator | None, pad_left: int | None = None):
    """One conv-GLU block: the weight-normed conv `name`, GLU, then inverted
    dropout when `rng` is given. Returns (output, cache for conv_glu_backward)."""
    pre, conv_cache = wn_conv(params, name, x, pad_left)
    out, gate = glu(pre)
    mask = None
    if rng is not None and dropout_rate > 0.0:
        keep = 1.0 - dropout_rate
        mask = (rng.random(out.shape) < keep) / keep
        out = out * mask
    return out, (conv_cache, pre[: gate.shape[0]], gate, mask)


def conv_glu_backward(params: dict, cache: tuple, d_out: np.ndarray, grads: dict) -> np.ndarray:
    """Store the block's conv gradients in `grads`; return the input gradient."""
    conv_cache, a, gate, mask = cache
    if mask is not None:
        d_out = d_out * mask
    d_pre = np.concatenate([d_out * gate, d_out * a * gate * (1.0 - gate)], axis=0)
    return wn_conv_backward(params, conv_cache, d_pre, grads)


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
            params = init_wn_convs(self._conv_layers(config), rng or np.random.default_rng(0))
        else:
            check_params(params, self.param_shapes(config), "acoustic model")
            check_wn_directions(params, self._conv_layers(config), "acoustic model")
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
        return wn_conv_shapes(AcousticModel._conv_layers(config))

    def forward(
        self,
        features: np.ndarray,
        rng: np.random.Generator | None = None,
        want_cache: bool = False,
    ):
        """Emissions of a feature map; layers with dropout draw masks from `rng` if given."""
        h = np.asarray(features)
        if h.shape[0] != self.config.layers[0].in_channels:
            raise DimensionError(
                f"features have {h.shape[0]} channels, model expects "
                f"{self.config.layers[0].in_channels}"
            )
        layer_caches = []
        for i, spec in enumerate(self.config.layers):
            h, layer_cache = conv_glu(self.params, f"layer{i}", h, spec.dropout_rate, rng)
            layer_caches.append(layer_cache)
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
        for layer_cache in reversed(cache["layers"]):
            d = conv_glu_backward(self.params, layer_cache, d, grads)
        return grads, d
