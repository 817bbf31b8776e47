"""Waveform front-ends.

The learnable front-end chains a trainable width-2 pre-emphasis, a trainable
complex filterbank (squared modulus taken after convolution), a fixed squared
Hanning low-pass with decimation, log compression, and per-channel instance
normalization. A fixed log-mel pipeline with identical frame geometry is
provided as a baseline, plus power-spectrum analysis of learned filters.
Both share one interface (`kind`, the constructor, `param_shapes`, `forward`
and `backward`), and `FRONTENDS` maps each kind to its class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    ConvSpeechError,
    DegenerateFilterError,
    DomainError,
    EmptySignalError,
    InsufficientInputError,
    DimensionError,
)
from .util import check_params

DEFAULT_SAMPLE_RATE = 16000
# A LearnableFrontend keeps no workspace with a buffer larger than this between
# passes, so it retains at most three times this much; a longer pass allocates afresh.
POOL_BUFFER_LIMIT = 8 * 2**20  # bytes


@dataclass
class Waveform:
    """Mono audio signal with amplitudes nominally in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate <= 0:
            raise ConfigurationError("sample_rate must be positive")


def _ms_to_samples(ms: float, sample_rate: int, what: str) -> int:
    exact = ms * sample_rate / 1000.0
    n = round(exact)
    if n <= 0 or abs(exact - n) > 1e-9:
        raise ConfigurationError(
            f"{what} of {ms} ms is not a whole positive sample count at {sample_rate} Hz"
        )
    return n


@dataclass
class FrontendConfig:
    """Geometry and numeric guards for the learnable front-end."""

    num_filters: int = 40
    filter_width_ms: float = 25.0
    lowpass_width_ms: float = 25.0
    stride_ms: float = 10.0
    log_epsilon: float = 1e-6
    norm_epsilon: float = 1e-5

    def __post_init__(self):
        if self.num_filters < 1:
            raise ConfigurationError("num_filters must be >= 1")
        if min(self.filter_width_ms, self.lowpass_width_ms, self.stride_ms) <= 0:
            raise ConfigurationError("widths and stride must be positive")
        if self.log_epsilon <= 0 or self.norm_epsilon <= 0:
            raise ConfigurationError("epsilons must be positive")

    def filter_width(self, sample_rate: int) -> int:
        return _ms_to_samples(self.filter_width_ms, sample_rate, "filter width")

    def lowpass_width(self, sample_rate: int) -> int:
        return _ms_to_samples(self.lowpass_width_ms, sample_rate, "low-pass width")

    def stride(self, sample_rate: int) -> int:
        return _ms_to_samples(self.stride_ms, sample_rate, "stride")


@dataclass
class FilterAnalysis:
    """Per-filter spectral summary, rows sorted by center frequency."""

    center_frequencies: np.ndarray  # (k,), Hz, ascending
    power_spectra: np.ndarray  # (k, bins), same row order
    bin_frequencies: np.ndarray  # (bins,), Hz


def squared_hanning(width: int) -> np.ndarray:
    """Squared Hanning window on `width` points, endpoints included."""
    n = np.arange(width, dtype=np.float64)
    return (0.5 - 0.5 * np.cos(2.0 * np.pi * n / (width - 1))) ** 2


def preemphasize(x: Waveform, kernel: np.ndarray) -> Waveform:
    """Width-2 filter y[t] = kernel[1]*x[t] + kernel[0]*x[t-1], zero left pad."""
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.shape != (2,):
        raise ConfigurationError("pre-emphasis kernel must have exactly 2 entries")
    s = x.samples
    if s.size == 0:
        raise EmptySignalError("cannot pre-emphasize an empty signal")
    y = kernel[1] * s
    y[1:] += kernel[0] * s[:-1]
    return Waveform(y, x.sample_rate)


def fft_length(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c that is >= n: a length numpy's FFT handles fast."""
    best = 1
    while best < n:
        best *= 2
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            size = p35
            while size < n:
                size *= 2
            best = min(best, size)
            p35 *= 3
        p5 *= 5
    return best


def correlate_rows(signal_spec: np.ndarray, row_spec: np.ndarray, n_fft: int,
                   lags: int, product: np.ndarray, out: np.ndarray) -> np.ndarray:
    """First `lags` lags of the cross-correlation of one signal with a stack of rows.

    From rfft spectra of length `n_fft`: out[f, t] = sum_w rows[f, w] * signal[t + w]
    for 0 <= t < lags. There is no wrap-around while lags + row length - 1 <= n_fft,
    which holds for valid correlations when n_fft >= len(signal).
    The product spectrum is written into `product`, shaped like `row_spec`
    (rows, n_fft // 2 + 1); it may be `row_spec` itself. The inverse transform
    is written into `out` (rows, n_fft), and the result is a view of its
    first `lags` columns.
    """
    np.conjugate(row_spec, out=product)
    product *= signal_spec
    return np.fft.irfft(product, n_fft, axis=1, out=out)[:, :lags]


def lowpass_decimate(power: np.ndarray, window: np.ndarray, stride: int) -> np.ndarray:
    """Windowed sums every `stride` steps: out[f, n] = sum_w window[w] * power[f, n*stride + w]."""
    power = np.asarray(power, dtype=np.float64)
    width = window.shape[0]
    t_conv = power.shape[1]
    if t_conv < width:
        raise InsufficientInputError(
            f"{t_conv} convolution outputs cannot fill one {width}-tap low-pass window"
        )
    t_out = (t_conv - width) // stride + 1
    frames = np.lib.stride_tricks.sliding_window_view(power, width, axis=1)[:, ::stride, :]
    return frames[:, :t_out, :] @ window


def lowpass_transpose(grad: np.ndarray, window: np.ndarray, stride: int,
                      length: int, take) -> np.ndarray:
    """Adjoint of lowpass_decimate: out[f, n*stride + w] += window[w] * grad[f, n].

    Tap w = j*stride + r of frame n lands on position (n + j)*stride + r, so
    the scatter is one vectorised add per phase j. The last phase goes first,
    which adds in the order of a loop over frames: the result is bit-identical
    to that loop. `take(size)` gives a flat float64 array of at least `size`
    entries, whatever they hold, for the output and one phase's products; the
    result is a view into it.
    """
    k, t_out = grad.shape
    phases = -(-window.size // stride)
    win = np.zeros(phases * stride)
    win[: window.size] = window
    blocks = max(t_out + phases - 1, -(-length // stride))
    buffer = take(k * (blocks + t_out) * stride)
    out = buffer[: k * blocks * stride].reshape(k, blocks, stride)
    term = buffer[out.size : out.size + k * t_out * stride].reshape(k, t_out, stride)
    out.fill(0.0)
    for j in reversed(range(phases)):
        np.multiply(grad[:, :, None], win[j * stride : (j + 1) * stride], out=term)
        out[:, j : j + t_out, :] += term
    return out.reshape(k, -1)[:, :length]


def _view(work: dict, name: str, shape: tuple, dtype) -> np.ndarray:
    """A `shape` array of `dtype` over the workspace's flat float64 buffer `name`,
    replaced by a larger one when missing or too small; it holds what the buffer held."""
    floats = int(np.prod(shape)) * np.dtype(dtype).itemsize // 8
    if name not in work or work[name].size < floats:
        work[name] = np.empty(floats)
    return work[name][:floats].view(dtype).reshape(shape)


def log_compress(values: np.ndarray, epsilon: float) -> np.ndarray:
    """Elementwise log(v + epsilon); input must be non-negative."""
    values = np.asarray(values, dtype=np.float64)
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    if values.size and values.min() < 0:
        raise DomainError("log compression requires non-negative input")
    return np.log(values + epsilon)


def instance_normalize(values: np.ndarray, epsilon: float) -> np.ndarray:
    """Per-channel mean-variance normalization over the frame axis."""
    values = np.asarray(values, dtype=np.float64)
    mean = values.mean(axis=1, keepdims=True)
    var = values.var(axis=1, keepdims=True)
    return (values - mean) / np.sqrt(var + epsilon)


def num_output_frames(num_samples: int, config: FrontendConfig, sample_rate: int) -> int:
    """Frames produced by the front-end chain on a signal of `num_samples`."""
    width = config.filter_width(sample_rate)
    lp_width = config.lowpass_width(sample_rate)
    stride = config.stride(sample_rate)
    t_conv = num_samples - width + 1
    if t_conv < lp_width:
        return 0
    return (t_conv - lp_width) // stride + 1


def _check_input(x: Waveform, config: FrontendConfig, sample_rate: int) -> int:
    """Frames a front-end at `sample_rate` makes of `x`: at least one, at that rate."""
    if x.sample_rate != sample_rate:
        raise DimensionError(f"waveform rate {x.sample_rate} != front-end rate {sample_rate}")
    frames = num_output_frames(len(x.samples), config, sample_rate)
    if frames < 1:
        raise InsufficientInputError(f"{len(x.samples)} samples yield no output frame")
    return frames


class LearnableFrontend:
    """Trainable front-end: pre-emphasis + complex filterbank + fixed low-pass.

    Parameters live in `params` under the keys "preemphasis" (2,),
    "filter_real" and "filter_imag" (k, W). The low-pass window is fixed to a
    squared Hanning window and receives no gradient.

    The three (2k, ~n_fft) arrays of a pass live in the buffers of a
    workspace kept between passes, so a pass faults in no fresh pages and
    makes no row-sized temporaries. "rows" holds the bank, zero-padded to
    n_fft in place, then the correlations; `backward` zeroes their tail past
    t_conv and transforms the upstream rows in it. "bank" holds the bank
    spectrum. "product" holds the product spectrum, then (with a cache) the
    squared correlations, and in `backward` the low-pass adjoint and then the
    upstream spectrum. What a buffer held before a pass never reaches its
    result. A forward takes the spare workspace or starts an empty one. It
    gives it back at its end, or with a cache `backward` does, so a second
    forward before a backward never writes into a live cache. The front-end
    keeps the workspace given back last, unless a buffer in it is over
    POOL_BUFFER_LIMIT bytes. One instance runs one pass at a time.
    """

    kind = "learnable"

    def __init__(
        self,
        config: FrontendConfig | None = None,
        sample_rate: int = DEFAULT_SAMPLE_RATE,
        rng: np.random.Generator | None = None,
        params: dict[str, np.ndarray] | None = None,
    ):
        self.config = config or FrontendConfig()
        self.sample_rate = sample_rate
        self.lowpass_window = squared_hanning(self.config.lowpass_width(sample_rate))
        shapes = self.param_shapes(self.config, sample_rate)
        if params is not None:
            check_params(params, shapes, "front-end")
            self.params = {k: np.asarray(params[k], dtype=np.float64) for k in shapes}
        else:
            rng = rng or np.random.default_rng(0)
            scale = 1.0 / np.sqrt(shapes["filter_real"][1])
            self.params = {
                "preemphasis": np.array([-0.97, 1.0]),
                "filter_real": rng.normal(0.0, scale, shapes["filter_real"]),
                "filter_imag": rng.normal(0.0, scale, shapes["filter_imag"]),
            }
        self._spare: dict[str, np.ndarray] | None = None  # buffer name -> flat array

    @staticmethod
    def param_shapes(config: FrontendConfig, sample_rate: int) -> dict[str, tuple]:
        """Every parameter array a front-end of this config holds, with its shape."""
        bank = (config.num_filters, config.filter_width(sample_rate))
        return {"preemphasis": (2,), "filter_real": bank, "filter_imag": bank}

    def _give_back(self, work: dict):
        """Keep `work` as the spare workspace, unless a buffer in it is over the limit."""
        if all(flat.nbytes <= POOL_BUFFER_LIMIT for flat in work.values()):
            self._spare = work

    def forward(self, x: Waveform, want_cache: bool = False):
        """Run the full chain; returns (channels, frames) features (and a cache for backward)."""
        cfg = self.config
        _check_input(x, cfg, self.sample_rate)
        stride = cfg.stride(self.sample_rate)
        pre = preemphasize(x, self.params["preemphasis"]).samples
        real, imag = self.params["filter_real"], self.params["filter_imag"]
        k, width = real.shape
        # one spectrum of the signal, one of the stacked real+imaginary bank,
        # which the rows buffer holds zero-padded to n_fft
        n_fft = fft_length(pre.size)
        bins = n_fft // 2 + 1
        pre_spec = np.fft.rfft(pre, n_fft)
        work, self._spare = self._spare or {}, None
        rows = _view(work, "rows", (2 * k, n_fft), np.float64)
        rows[:k, :width] = real
        rows[k:, :width] = imag
        rows[:, width:] = 0.0
        bank_spec = np.fft.rfft(rows, axis=1,
                                out=_view(work, "bank", (2 * k, bins), np.complex128))
        lags = pre.size - width + 1
        if want_cache:  # backward needs the bank spectrum and the correlations
            product = _view(work, "product", (2 * k, bins), np.complex128)
            corr = correlate_rows(pre_spec, bank_spec, n_fft, lags, product=product, out=rows)
            squares = np.square(corr, out=_view(work, "product", corr.shape, np.float64))
        else:  # nothing does: multiply and square in place
            corr = correlate_rows(pre_spec, bank_spec, n_fft, lags, product=bank_spec, out=rows)
            squares = np.square(corr, out=corr)
        power = squares[:k]
        power += squares[k:]
        pooled = lowpass_decimate(power, self.lowpass_window, stride)
        logged = log_compress(pooled, cfg.log_epsilon)
        normed = instance_normalize(logged, cfg.norm_epsilon)
        if not want_cache:
            self._give_back(work)
            return normed
        cache = {
            "work": work,
            "x": x.samples,
            "pre_spec": pre_spec,
            "bank_spec": bank_spec,
            "n_fft": n_fft,
            "corr": corr,
            "pooled": pooled,
            "logged": logged,
            "normed": normed,
            "stride": stride,
        }
        return normed, cache

    def backward(self, cache: dict, upstream: np.ndarray) -> dict[str, np.ndarray]:
        """Chain-rule gradients for the trainable parameters.

        The fixed low-pass window gets no gradient by construction. Returns a
        dict keyed like `params`. A cache serves one backward: it works in
        the cache's workspace and gives it back, removing it, the correlations
        and the bank spectrum from the cache, so a second call on the same
        cache raises ConvSpeechError.
        """
        cfg = self.config
        normed = cache["normed"]
        if upstream.shape != normed.shape:
            raise DimensionError(
                f"upstream gradient shape {upstream.shape} != output shape {normed.shape}"
            )
        if "corr" not in cache:
            raise ConvSpeechError("this front-end cache was already used by a backward pass")
        # instance normalization; std as instance_normalize computed it
        std = np.sqrt(cache["logged"].var(axis=1, keepdims=True) + cfg.norm_epsilon)
        d_logged = (
            upstream
            - upstream.mean(axis=1, keepdims=True)
            - normed * (upstream * normed).mean(axis=1, keepdims=True)
        ) / std
        # log compression
        d_pooled = d_logged / (cache["pooled"] + cfg.log_epsilon)
        # low-pass decimation (window fixed, so no gradient of its own)
        corr, work = cache.pop("corr"), cache.pop("work")
        two_k, t_conv = corr.shape
        k = two_k // 2
        d_power = lowpass_transpose(d_pooled, self.lowpass_window, cache["stride"], t_conv,
                                    take=lambda size: _view(work, "product", (size,), np.float64))
        # squared modulus: upstream rows for the stacked real+imaginary bank,
        # formed in the correlation rows themselves and zero-padded to n_fft
        d_power *= 2.0
        n_fft = cache["n_fft"]
        rows = _view(work, "rows", (two_k, n_fft), np.float64)
        rows[:k, :t_conv] *= d_power
        rows[k:, :t_conv] *= d_power
        rows[:, t_conv:] = 0.0
        # complex convolution, from one spectrum of the upstream rows: the
        # signal gradient sums the full convolutions d_f * K_f, and the filter
        # gradients are the first W lags of the correlation of the input with d_f
        x = cache["x"]
        bank_spec = cache.pop("bank_spec")
        width = self.params["filter_real"].shape[1]
        d_spec = np.fft.rfft(rows, axis=1,
                             out=_view(work, "product", bank_spec.shape, np.complex128))
        d_pre_spec = np.einsum("fb,fb->b", d_spec, bank_spec)
        d_pre = np.fft.irfft(d_pre_spec, n_fft)[: x.size]
        g_bank = correlate_rows(cache["pre_spec"], d_spec, n_fft, width,
                                product=d_spec, out=rows).copy()
        self._give_back(work)
        # pre-emphasis: y[t] = k1*x[t] + k0*x[t-1]
        g_pre = np.array([np.dot(d_pre[1:], x[:-1]), np.dot(d_pre, x)])
        return {"preemphasis": g_pre, "filter_real": g_bank[:k], "filter_imag": g_bank[k:]}


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


class MelFrontend:
    """Fixed log-mel baseline behind the learnable front-end's interface.

    Hamming-windowed power spectra every `stride_ms`, triangular mel filters
    spanning 0..Nyquist, log compression, instance normalization. Frame count
    matches LearnableFrontend on the same input so acoustic models built on
    either front-end are interchangeable.
    """

    kind = "mel"

    def __init__(
        self,
        config: FrontendConfig | None = None,
        sample_rate: int = DEFAULT_SAMPLE_RATE,
        rng: np.random.Generator | None = None,
        params: dict[str, np.ndarray] | None = None,
    ):
        self.config = config or FrontendConfig()
        self.sample_rate = sample_rate
        check_params(params or {}, self.param_shapes(self.config, sample_rate), "mel front-end")
        self.params: dict[str, np.ndarray] = {}
        width = self.config.filter_width(sample_rate)
        self.window = np.hamming(width)
        self.n_fft = 1 << (width - 1).bit_length()  # the smallest power of 2 >= width
        # triangles between mel-spaced edges from 0 to Nyquist, one row per filter
        edges = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate / 2.0),
                                      self.config.num_filters + 2))
        bin_freqs = np.fft.rfftfreq(self.n_fft, 1.0 / sample_rate)
        lo, center, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
        up = (bin_freqs - lo) / np.maximum(center - lo, 1e-12)
        down = (hi - bin_freqs) / np.maximum(hi - center, 1e-12)
        self.filterbank = np.clip(np.minimum(up, down), 0.0, None)  # (filters, bins)

    @staticmethod
    def param_shapes(config: FrontendConfig, sample_rate: int) -> dict[str, tuple]:
        """A mel front-end holds no parameter arrays."""
        return {}

    def forward(self, x: Waveform, want_cache: bool = False):
        """(channels, frames) log-mel features (and a cache, None, for backward)."""
        n_frames = _check_input(x, self.config, self.sample_rate)
        starts = self.config.stride(self.sample_rate) * np.arange(n_frames)
        frames = x.samples[starts[:, None] + np.arange(self.window.size)]
        frames = frames * self.window
        spectra = np.abs(np.fft.rfft(frames, self.n_fft, axis=1)) ** 2
        energies = spectra @ self.filterbank.T  # (frames, filters)
        logged = log_compress(energies.T, self.config.log_epsilon)
        feat = instance_normalize(logged, self.config.norm_epsilon)
        return (feat, None) if want_cache else feat

    def backward(self, cache, upstream: np.ndarray) -> dict[str, np.ndarray]:
        """A mel front-end has no parameters, so no gradients."""
        return {}


# the one map from a front-end kind, as checkpoints and the CLI name it, to its class
FRONTENDS = {cls.kind: cls for cls in (LearnableFrontend, MelFrontend)}


def analyze_filters(fe: LearnableFrontend) -> FilterAnalysis:
    """Center frequencies and power spectra of all filters, sorted ascending.

    A filter's power spectrum is a zero-padded DFT of four times the kernel
    width, kept on the bins from 0 to Nyquist; its center frequency is the bin
    where that spectrum peaks. An all-zero filter has no center frequency.
    """
    kernels = fe.params["filter_real"] + 1j * fe.params["filter_imag"]
    silent = np.flatnonzero(~np.any(kernels, axis=1))
    if len(silent):
        raise DegenerateFilterError(f"filter {silent[0]} is all zero: no center frequency")
    n_fft = 4 * kernels.shape[1]
    freqs = np.fft.fftfreq(n_fft, 1.0 / fe.sample_rate)
    keep = np.flatnonzero((freqs >= 0.0) & (freqs <= fe.sample_rate / 2.0))
    spectra = np.abs(np.fft.fft(kernels, n_fft, axis=1)[:, keep]) ** 2
    centers = freqs[keep][np.argmax(spectra, axis=1)]
    order = np.argsort(centers, kind="stable")
    return FilterAnalysis(centers[order], spectra[order], freqs[keep])
