"""Waveform front-ends.

The learnable front-end chains a trainable width-2 pre-emphasis, a trainable
complex filterbank (squared modulus taken after convolution), a fixed squared
Hanning low-pass with decimation, log compression, and per-channel instance
normalization. Its filterbank correlations, forward and backward, run by
overlap-save blocks of one FFT length, block_length(n, W): the signal's own
FFT length while that is short, else that of BLOCK_WIDTHS filter widths. Its
low-pass and the low-pass's adjoint are matrix products over stride-long
phases of the window, which BLAS runs. Only its forward without a cache
keeps buffers between calls: the three that correlate_blocks writes. A pass
with a cache works in arrays of its own. A fixed log-mel pipeline with
identical frame geometry is provided as a baseline, plus power-spectrum
analysis of learned filters.
Both share one interface (`kind`, the constructor, `param_shapes`, `forward`
and `backward`), and `FRONTENDS` maps each kind to its class.
"""

from __future__ import annotations

import math
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
# passes, so its pool retains at most three times this much; a longer pass allocates afresh.
POOL_BUFFER_LIMIT = 8 * 2**20  # bytes
# Overlap-save blocks are fft_length of this many filter widths long (block_length).
BLOCK_WIDTHS = 4


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
        widths = (self.filter_width_ms, self.lowpass_width_ms, self.stride_ms)
        if not all(0 < ms < np.inf for ms in widths):
            raise ConfigurationError("widths and stride must be finite and positive")
        if not (0 < self.log_epsilon < np.inf and 0 < self.norm_epsilon < np.inf):
            raise ConfigurationError("epsilons must be finite and positive")

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


def block_length(n: int, width: int) -> int:
    """FFT length of the overlap-save blocks that correlate n samples with `width`-tap rows.

    The signal's own fft_length(n) while that is no longer than
    fft_length(BLOCK_WIDTHS * width), so such a signal is one block; past it,
    blocks of that fixed length.
    """
    cap = fft_length(BLOCK_WIDTHS * width)
    return cap if n >= cap else fft_length(n)


def correlate_blocks(signal: np.ndarray, bank: np.ndarray, length: int, width: int,
                     work: dict) -> tuple[np.ndarray, np.ndarray]:
    """Valid cross-correlation of one signal with a stack of `width`-tap rows, by overlap-save.

    out[f, t] = sum_w rows[f, w] * signal[t + w] for 0 <= t <= len(signal) - width.
    `bank` holds the conjugated rfft spectra of the rows at the block length
    `length`, shaped (rows, length // 2 + 1). Block b gives the
    M = length - width + 1 lags from b*M: the rfft of signal[b*M : b*M + length]
    goes to row b of the workspace buffer "blocks", its product with the bank
    to "product", and the inverse transform of that to columns b*M to
    b*M + length of the "rows" buffer, shaped (rows, blocks*M + width - 1).
    One rfft transforms every full block, through a strided view of the
    signal; a second one the short last block, if any, zero-padded by the rfft.
    Only a block's last width - 1 columns wrap around, and the next block
    overwrites them. Returns the views of "rows", whose first lags columns
    are `out`, and of "blocks", which holds the blocks' spectra.
    """
    lags = signal.size - width + 1
    step = length - width + 1
    count = -(-lags // step)
    full = (signal.size - length) // step + 1  # blocks inside the signal
    specs = _view(work, "blocks", (count, length // 2 + 1), np.complex128)
    product = _view(work, "product", bank.shape, np.complex128)
    out = _view(work, "rows", (bank.shape[0], count * step + width - 1), np.float64)
    (item,) = signal.strides
    blocks = np.lib.stride_tricks.as_strided(signal, (full, length), (step * item, item))
    np.fft.rfft(blocks, length, axis=1, out=specs[:full])
    if full < count:
        np.fft.rfft(signal[full * step :], length, out=specs[full])
    for b, start in enumerate(range(0, lags, step)):
        np.multiply(bank, specs[b], out=product)
        np.fft.irfft(product, length, axis=1, out=out[:, start : start + length])
    return out, specs


def lowpass_decimate(power: np.ndarray, window: np.ndarray, stride: int) -> np.ndarray:
    """Windowed sums every `stride` steps: out[f, n] = sum_w window[w] * power[f, n*stride + w].

    Tap w = j*stride + r of frame n reads position (n + j)*stride + r, so the
    sum is one matrix-vector product per phase j: frames by the phase's
    window taps over a (rows, frames, taps) view of the rows. Each view's
    frames lie `stride` apart with unit-strided taps, a layout BLAS accepts, and
    no view reads past the last frame's window.
    """
    power = np.asarray(power, dtype=np.float64)
    width = window.shape[0]
    rows, t_conv = power.shape
    if t_conv < width:
        raise InsufficientInputError(
            f"{t_conv} convolution outputs cannot fill one {width}-tap low-pass window"
        )
    t_out = (t_conv - width) // stride + 1
    row_step, step = power.strides
    out = np.zeros((rows, t_out))
    for start in range(0, width, stride):
        taps = window[start : start + stride]
        frames = np.lib.stride_tricks.as_strided(
            power[:, start:], (rows, t_out, taps.size), (row_step, stride * step, step))
        out += frames @ taps
    return out


def lowpass_transpose(grad: np.ndarray, window: np.ndarray, stride: int,
                      length: int) -> np.ndarray:
    """Adjoint of lowpass_decimate: out[f, n*stride + w] += window[w] * grad[f, n].

    Tap w = j*stride + r of frame n lands on position (n + j)*stride + r, so
    block b of `stride` positions is sum_j grad[f, b - j] * window[j*stride + r],
    over the phases j and the frames b - j that exist. That is one matrix
    product: a Toeplitz view of the gradient, zero-padded by phases - 1 frames
    on each side, shaped (rows, blocks, phases) with its phases reversed,
    times the window zero-padded to phases*stride taps and shaped
    (phases, stride), over the blocks that cover `length` positions.
    """
    k, t_out = grad.shape
    phases = -(-window.size // stride)
    blocks = -(-length // stride)
    taps = np.zeros(phases * stride)
    taps[: window.size] = window
    padded = np.zeros((k, blocks + phases - 1))
    padded[:, phases - 1 : phases - 1 + t_out] = grad
    toeplitz = np.lib.stride_tricks.sliding_window_view(padded, phases, axis=1)[:, :, ::-1]
    out = toeplitz.reshape(-1, phases) @ taps.reshape(phases, stride)
    return out.reshape(k, -1)[:, :length]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float64 arrays hold the same bits: -0.0 differs from 0.0, NaN equals itself."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _view(work: dict, name: str, shape: tuple, dtype) -> np.ndarray:
    """A `shape` array of `dtype` over the workspace's flat float64 buffer `name`,
    replaced by a larger one when missing or too small; it holds what the buffer held.
    A buffer too small is dropped before its replacement is allocated, so a
    growing workspace never holds both."""
    floats = math.prod(shape) * np.dtype(dtype).itemsize // 8
    if name not in work or work[name].size < floats:
        work.pop(name, None)
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

    The filterbank correlations run by overlap-save blocks of one FFT length
    L = block_length(n, W), M = L - W + 1 lags each (see correlate_blocks),
    so no FFT of a pass is longer than L. The conjugated spectrum of the
    stacked real+imaginary bank at L is kept until L or a filter's bits change
    (_bank_spectrum). correlate_blocks writes the three buffers of a
    workspace: "rows", the correlations, (2k, blocks*M + W - 1); "blocks",
    the signal blocks' spectra; and "product", one block's product spectrum.
    A forward reuses the spare workspace or starts an empty one. Without a
    cache it forms the power in the correlation rows and gives the
    workspace back, so a warm forward faults in no fresh pages and makes no row-sized
    temporaries; the front-end keeps it unless a buffer in it is over
    POOL_BUFFER_LIMIT bytes. With a cache it puts its "rows" and "blocks" in
    the cache and drops the rest, and `backward` works in those and in
    arrays of its own, and gives nothing back. So passes may interleave
    without writing into a live cache, and what a buffer held before a pass
    never reaches its result.
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
        self._spectrum = None  # (block length, [filter_real, filter_imag], bank spectrum)

    @staticmethod
    def param_shapes(config: FrontendConfig, sample_rate: int) -> dict[str, tuple]:
        """Every parameter array a front-end of this config holds, with its shape."""
        bank = (config.num_filters, config.filter_width(sample_rate))
        return {"preemphasis": (2,), "filter_real": bank, "filter_imag": bank}

    def _bank_spectrum(self, length: int) -> np.ndarray:
        """The conjugated rfft spectrum at `length` of the stacked real+imaginary bank,
        kept with `length` and copies of the filters, and reused while they match
        bit for bit. A new one is a new array, since a live cache may hold the old."""
        filters = self.params["filter_real"], self.params["filter_imag"]
        kept = self._spectrum
        if kept is not None and kept[0] == length and all(map(_same_bits, kept[1], filters)):
            return kept[2]
        padded = np.zeros((2 * filters[0].shape[0], length))
        np.concatenate(filters, out=padded[:, : filters[0].shape[1]])
        bank = np.fft.rfft(padded, axis=1)  # faster than rfft(filters, length), same bits
        np.conjugate(bank, out=bank)
        self._spectrum = (length, [f.copy() for f in filters], bank)
        return bank

    def forward(self, x: Waveform, want_cache: bool = False):
        """Run the full chain; returns (channels, frames) features (and a cache for backward)."""
        cfg = self.config
        _check_input(x, cfg, self.sample_rate)
        stride = cfg.stride(self.sample_rate)
        pre = preemphasize(x, self.params["preemphasis"]).samples
        k, width = self.params["filter_real"].shape
        length = block_length(pre.size, width)
        bank = self._bank_spectrum(length)
        work, self._spare = self._spare or {}, None
        rows, specs = correlate_blocks(pre, bank, length, width, work)
        t_conv = pre.size - width + 1
        corr = rows[:, :t_conv]
        if want_cache:  # backward needs the correlations: the power gets rows of its own
            pairs = corr.reshape(2, k, t_conv)
            power = np.einsum("fkt,fkt->kt", pairs, pairs)  # the bits of re^2 + im^2
        else:  # nothing does: square in place
            power = np.square(corr, out=corr)[:k]
            power += corr[k:]
        pooled = lowpass_decimate(power, self.lowpass_window, stride)
        logged = log_compress(pooled, cfg.log_epsilon)
        normed = instance_normalize(logged, cfg.norm_epsilon)
        if not want_cache:
            if all(flat.nbytes <= POOL_BUFFER_LIMIT for flat in work.values()):
                self._spare = work
            return normed
        cache = {
            "x": x.samples,
            "length": length,
            "bank": bank,
            "rows": rows,
            "blocks": specs,
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
        the cache's correlation rows and block spectra, removing them and the
        bank spectrum from the cache, so a second call on the same cache
        raises ConvSpeechError.
        """
        cfg = self.config
        normed = cache["normed"]
        if upstream.shape != normed.shape:
            raise DimensionError(
                f"upstream gradient shape {upstream.shape} != output shape {normed.shape}"
            )
        if "rows" not in cache:
            raise ConvSpeechError("this front-end cache was already used by a backward pass")
        # instance normalization; std as instance_normalize computed it
        std = np.sqrt(cache["logged"].var(axis=1, keepdims=True) + cfg.norm_epsilon)
        d_logged = (
            upstream
            - upstream.mean(axis=1, keepdims=True)
            - normed * (upstream * normed).mean(axis=1, keepdims=True)
        ) / std
        # log compression, times the 2 of the squared modulus's derivative
        # (exact: doubling rounds nothing)
        d_pooled = 2.0 * d_logged / (cache["pooled"] + cfg.log_epsilon)
        rows, specs = cache.pop("rows"), cache.pop("blocks")
        bank, length = cache.pop("bank"), cache.pop("length")
        k, width = self.params["filter_real"].shape
        step = length - width + 1
        t_conv = cache["x"].size - width + 1
        # low-pass decimation (window fixed, so no gradient of its own), then
        # the squared modulus: upstream rows d_f = 2 * corr_f * d_power for the
        # stacked real+imaginary bank, formed in the correlation rows themselves
        rows.reshape(2, k, -1)[:, :, :t_conv] *= lowpass_transpose(
            d_pooled, self.lowpass_window, cache["stride"], t_conv)
        rows[:, t_conv:] = 0.0  # the last block's padding
        # complex convolution, block by block: the spectrum D of a block of
        # the upstream rows, zero-padded to L, conjugated in place. The
        # padding of a block that is not the last is the next block's first
        # W - 1 columns, stashed and zeroed for its rfft, then put back. The
        # filter gradients are the first W lags of the inverse transform of
        # the sum over blocks of conj(D) times the signal block's spectrum,
        # which the block's row of `specs` then trades for the conjugated
        # spectrum of the block's full convolutions sum_f d_f * K_f.
        d_spec = np.empty(bank.shape, np.complex128)
        terms = np.empty(bank.shape, np.complex128)
        g_spec = np.zeros(bank.shape, np.complex128)
        stash = np.empty((2 * k, width - 1))
        for b, start in enumerate(range(0, t_conv, step)):
            padding = rows[:, start + step : start + length]
            np.copyto(stash, padding)
            padding.fill(0.0)
            np.fft.rfft(rows[:, start : start + length], axis=1, out=d_spec)
            np.copyto(padding, stash)
            np.conjugate(d_spec, out=d_spec)
            g_spec += np.multiply(d_spec, specs[b], out=terms)
            # sum_f conj(D_f) * conj(K_f) = conj(spectrum of sum_f d_f * K_f)
            np.multiply(d_spec, bank, out=terms).sum(axis=0, out=specs[b])
        g_bank = np.fft.irfft(g_spec, length, axis=1)[:, :width].copy()
        # the signal gradient overlap-adds the blocks' full convolutions
        convs = np.fft.irfft(np.conjugate(specs, out=specs), length, axis=1)
        d_pre = np.zeros(rows.shape[1])
        for b, conv in enumerate(convs):
            d_pre[b * step : b * step + length] += conv
        # pre-emphasis: y[t] = k1*x[t] + k0*x[t-1]
        x = cache["x"]
        d_pre = d_pre[: x.size]
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
