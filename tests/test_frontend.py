import dataclasses
import json
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from convspeech import frontend as fe
from convspeech.errors import (
    ConfigurationError,
    ConvSpeechError,
    DegenerateFilterError,
    DimensionError,
    DomainError,
    EmptySignalError,
    InsufficientInputError,
)

from oracles import (
    finite_difference,
    grad_close,
    naive_complex_conv_power,
    naive_lowpass_decimate,
    naive_preemphasis,
)

RATE = 16000
GOLDEN = Path(__file__).with_name("frontend_golden.json")

# small geometry used by unit tests (1.25 ms -> 20 taps, 0.5 ms -> 8-step stride)
TOY = fe.FrontendConfig(
    num_filters=3, filter_width_ms=1.25, lowpass_width_ms=1.25, stride_ms=0.5
)


def toy_frontend(seed=0, config=TOY):
    return fe.LearnableFrontend(config, RATE, rng=np.random.default_rng(seed))


def test_preemphasize_constant_input():
    y = fe.preemphasize(fe.Waveform(np.ones(3), RATE), np.array([-0.97, 1.0]))
    assert np.allclose(y.samples, [1.0, 0.03, 0.03])


def test_preemphasize_identity_kernel():
    x = np.linspace(-1, 1, 17)
    y = fe.preemphasize(fe.Waveform(x, RATE), np.array([0.0, 1.0]))
    assert np.array_equal(y.samples, x)


def test_preemphasize_matches_naive_convolution():
    rng = np.random.default_rng(1)
    x = rng.normal(size=64)
    kernel = np.array([-0.97, 1.0])
    y = fe.preemphasize(fe.Waveform(x, RATE), kernel)
    assert np.max(np.abs(y.samples - naive_preemphasis(x, kernel))) <= 1e-12


def test_preemphasize_empty_signal():
    with pytest.raises(EmptySignalError):
        fe.preemphasize(fe.Waveform(np.array([0.0]), RATE).__class__(np.zeros(0), RATE),
                        np.array([-0.97, 1.0]))


def block_correlation(x, rows):
    """fe.correlate_blocks of x with `rows`, at the block length the front-end uses."""
    width = rows.shape[1]
    length = fe.block_length(x.size, width)
    bank = np.conj(np.fft.rfft(rows, length, axis=1))
    rows, _ = fe.correlate_blocks(x, bank, length, width, {})
    return rows[:, : x.size - width + 1]


def bank_power(x, real, imag):
    """Squared modulus of the valid complex correlation, through fe.correlate_blocks."""
    corr = block_correlation(x, np.concatenate([real, imag]))
    return corr[: len(real)] ** 2 + corr[len(real) :] ** 2


def test_complex_conv_power_matched_tone_is_flat():
    # complex exponential filter at 1 kHz applied to a 1 kHz sinusoid: the
    # squared modulus is the (approximately constant) envelope
    width = 400
    t = np.arange(width) / RATE
    real = np.cos(2 * np.pi * 1000 * t)[None, :]
    imag = np.sin(2 * np.pi * 1000 * t)[None, :]
    n = np.arange(RATE // 10) / RATE
    x = np.sin(2 * np.pi * 1000 * n)
    out = bank_power(x, real, imag)[0]
    core = out[width : -width if out.size > 2 * width else None]
    assert (core.max() - core.min()) / core.max() <= 0.05


def test_complex_conv_power_zero_signal():
    real = np.ones((2, 8))
    out = bank_power(np.zeros(32), real, real)
    assert out.shape == (2, 25)
    assert np.all(out == 0.0)


def test_complex_conv_power_matches_naive():
    rng = np.random.default_rng(2)
    x = rng.normal(size=50)
    real = rng.normal(size=(3, 7))
    imag = rng.normal(size=(3, 7))
    got = bank_power(x, real, imag)
    want = naive_complex_conv_power(x, real, imag)
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-10


def test_complex_conv_power_short_signal():
    # fewer samples than filter taps
    with pytest.raises(InsufficientInputError):
        toy_frontend().forward(fe.Waveform(np.zeros(5), RATE))


@settings(max_examples=30, deadline=None)
@given(
    arrays(np.float64, 40, elements=st.floats(-2.0, 2.0, allow_nan=False)),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_complex_conv_power_non_negative(x, seed):
    rng = np.random.default_rng(seed)
    real = rng.normal(size=(3, 9))
    imag = rng.normal(size=(3, 9))
    assert np.all(bank_power(x, real, imag) >= 0.0)


def test_correlate_blocks_matches_direct():
    rng = np.random.default_rng(15)
    x = rng.normal(size=12000)
    kernels = rng.normal(size=(8, 300))
    direct = np.lib.stride_tricks.sliding_window_view(x, 300) @ kernels.T
    got = block_correlation(x, kernels).T
    assert np.max(np.abs(got - direct)) / np.max(np.abs(direct)) <= 1e-12


@pytest.mark.parametrize("config", [TOY, fe.FrontendConfig(num_filters=8)], ids=["toy", "8 filters"])
@pytest.mark.parametrize("blocks", [1, 2, 3])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_block_correlation_matches_np_correlate_at_block_edges(config, blocks, extra):
    # lags = q*M - 1, q*M and q*M + 1 for M lags per block: a last block one
    # short of full, full, and of one lag; q = 1 puts the signal on either
    # side of the switch from one block of its own FFT length to blocks
    width = config.filter_width(RATE)
    length = fe.fft_length(fe.BLOCK_WIDTHS * width)
    step = length - width + 1
    n = blocks * step + extra + width - 1
    assert fe.block_length(n, width) == (fe.fft_length(n) if n <= length else length)
    rng = np.random.default_rng(n)
    x = rng.normal(size=n)
    rows = rng.normal(size=(2 * config.num_filters, width))
    direct = np.stack([np.correlate(x, row, "valid") for row in rows])
    got = block_correlation(x, rows)
    assert got.shape == direct.shape
    assert np.max(np.abs(got - direct)) / np.max(np.abs(direct)) <= 1e-10


def _is_5_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=200_000))
def test_fft_length_is_smallest_5_smooth_at_least_n(n):
    size = fe.fft_length(n)
    assert size >= n and _is_5_smooth(size)
    assert not any(_is_5_smooth(m) for m in range(n, size))


def test_fft_length_beats_next_power_of_two():
    assert fe.fft_length(8193) == 8640 and fe.fft_length(9120) == 9216
    assert fe.fft_length(16385) == 16875 and fe.fft_length(16384) == 16384


# Long signals whose smooth FFT length differs from the next power of two,
# checked against direct time-domain formulas (np.correlate / np.convolve and
# a scatter loop for the low-pass), which share no code with the front-end.
# All of them take several overlap-save blocks; with 400 taps, 8,807 samples
# leave the last block a single lag.
LONG_LENGTHS = (8193, 8807, 9120, 16385)


def _direct_forward(front, samples):
    p = front.params
    cfg = front.config
    pre = p["preemphasis"][1] * samples
    pre[1:] += p["preemphasis"][0] * samples[:-1]
    c_re = np.stack([np.correlate(pre, h, "valid") for h in p["filter_real"]])
    c_im = np.stack([np.correlate(pre, h, "valid") for h in p["filter_imag"]])
    win = front.lowpass_window
    stride = cfg.stride(RATE)
    t_out = (c_re.shape[1] - win.size) // stride + 1
    power = c_re**2 + c_im**2
    pooled = np.stack([power[:, n * stride : n * stride + win.size] @ win for n in range(t_out)], 1)
    logged = np.log(pooled + cfg.log_epsilon)
    std = np.sqrt(logged.var(axis=1, keepdims=True) + cfg.norm_epsilon)
    normed = (logged - logged.mean(axis=1, keepdims=True)) / std
    return normed, (pre, c_re, c_im, pooled, std)


def _direct_backward(front, samples, upstream):
    p = front.params
    cfg = front.config
    normed, (pre, c_re, c_im, pooled, std) = _direct_forward(front, samples)
    d_logged = (upstream - upstream.mean(axis=1, keepdims=True)
                - normed * (upstream * normed).mean(axis=1, keepdims=True)) / std
    d_pooled = d_logged / (pooled + cfg.log_epsilon)
    win = front.lowpass_window
    stride = cfg.stride(RATE)
    d_power = np.zeros_like(c_re)
    for n in range(d_pooled.shape[1]):
        d_power[:, n * stride : n * stride + win.size] += win * d_pooled[:, n : n + 1]
    d_re, d_im = 2 * c_re * d_power, 2 * c_im * d_power
    width = p["filter_real"].shape[1]
    g_real = np.stack([np.correlate(pre, d, "valid")[:width] for d in d_re])
    g_imag = np.stack([np.correlate(pre, d, "valid")[:width] for d in d_im])
    d_pre = sum(np.convolve(d, h) for d, h in zip(d_re, p["filter_real"]))
    d_pre = d_pre + sum(np.convolve(d, h) for d, h in zip(d_im, p["filter_imag"]))
    g_pre = np.array([np.dot(d_pre[1:], samples[:-1]), np.dot(d_pre, samples)])
    # the pre-emphasis gradients are dot products that cancel heavily; their
    # rounding scales with the sum of the absolute terms, not with the result
    pre_scale = np.abs(d_pre * samples).sum()
    return ({"preemphasis": g_pre, "filter_real": g_real, "filter_imag": g_imag},
            {"preemphasis": pre_scale, "filter_real": np.max(np.abs(g_real)),
             "filter_imag": np.max(np.abs(g_imag))})


@pytest.mark.parametrize("n", LONG_LENGTHS)
def test_forward_and_backward_match_direct_formulas_on_long_signals(n):
    assert fe.fft_length(n) < 2 ** int(np.ceil(np.log2(n)))
    rng = np.random.default_rng(n)
    front = fe.LearnableFrontend(fe.FrontendConfig(num_filters=4), RATE, rng=rng)
    samples = 0.3 * rng.normal(size=n)
    feat, cache = front.forward(fe.Waveform(samples, RATE), want_cache=True)
    want, _ = _direct_forward(front, samples)
    assert np.max(np.abs(feat - want)) <= 1e-10
    upstream = rng.normal(size=feat.shape)
    got = front.backward(cache, upstream)
    expected, scale = _direct_backward(front, samples, upstream)
    for key in front.params:
        assert np.max(np.abs(got[key] - expected[key])) / scale[key] <= 1e-10, key


@pytest.mark.parametrize("n", LONG_LENGTHS)
def test_backward_matches_finite_differences_on_long_signals(n):
    rng = np.random.default_rng(n + 1)
    front = fe.LearnableFrontend(
        fe.FrontendConfig(num_filters=2, filter_width_ms=1.25, lowpass_width_ms=1.25,
                          stride_ms=0.5), RATE, rng=rng)
    x = fe.Waveform(0.3 * rng.normal(size=n), RATE)
    feat, cache = front.forward(x, want_cache=True)
    weights = rng.normal(size=feat.shape)
    grads = front.backward(cache, weights)
    numeric = finite_difference(
        lambda: _frontend_loss(front, x, weights), front.params, step=1e-5
    )
    for key in front.params:
        assert grad_close(grads[key], numeric[key], 1e-4), key


def test_lowpass_constant_input():
    window = fe.squared_hanning(16)
    const = np.full((2, 64), 3.5)
    out = fe.lowpass_decimate(const, window, 4)
    assert np.allclose(out, 3.5 * window.sum())


def test_lowpass_nonoverlapping_pairs():
    p = np.arange(8.0)[None, :]
    out = fe.lowpass_decimate(p, np.ones(2), 2)
    assert np.allclose(out, [[1.0, 5.0, 9.0, 13.0]])


def test_lowpass_matches_naive():
    rng = np.random.default_rng(3)
    p = rng.normal(size=(4, 57)) ** 2
    window = fe.squared_hanning(9)
    got = fe.lowpass_decimate(p, window, 3)
    want = naive_lowpass_decimate(p, window, 3)
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-10


# unit roundoff: |fl(x) - x| <= U * |x|
U = 2.0**-53


def test_lowpass_matches_an_fsum_reference():
    # a row view of a wider buffer, as the front-end's power rows are; each
    # output is a sum of 400 non-negative products, so a sum in any order of
    # the products, formed exactly or rounded, is within (W + 2) * U of the
    # correctly rounded sum of the rounded products that math.fsum gives
    power = np.random.default_rng(4).random((16, 15700))[:8, :15601]
    window = fe.squared_hanning(400)
    got = fe.lowpass_decimate(power, window, 160)
    assert got.shape == (8, 96)
    want = np.array([[math.fsum(window * power[f, n * 160 : n * 160 + 400]) for n in range(96)]
                     for f in range(8)])
    assert np.all(np.abs(got - want) <= (400 + 2) * U * want)


@pytest.mark.parametrize("n", [1600, 1601, 1920, 9120, 16320])
def test_block_spectra_equal_one_rfft_per_block_bitwise(n):
    # one rfft over the full blocks and one over the short last block give
    # every block the bits of its own single-row rfft
    rng = np.random.default_rng(43)
    signal, width = 0.3 * rng.normal(size=n), 400
    length = fe.block_length(n, width)
    bank = np.conj(np.fft.rfft(rng.normal(size=(4, width)), length, axis=1))
    _, specs = fe.correlate_blocks(signal, bank, length, width, {})
    step = length - width + 1
    count = -(-(n - width + 1) // step)
    assert specs.shape == (count, length // 2 + 1)
    for b in range(count):
        want = np.fft.rfft(signal[b * step : b * step + length], length)
        assert np.array_equal(specs[b].view(np.uint64), want.view(np.uint64)), b


@pytest.mark.parametrize("width, stride, t_conv", [(9, 3, 57), (400, 160, 15601), (8, 8, 64), (5, 7, 40)])
def test_lowpass_transpose_matches_an_fsum_reference(width, stride, t_conv):
    rng = np.random.default_rng(width + stride)
    window = fe.squared_hanning(width)
    t_out = (t_conv - width) // stride + 1
    grad = rng.normal(size=(3, t_out))
    # the products window[w] * grad[f, n] that land on position n*stride + w:
    # at most `phases` of them, so any sum of them, formed exactly or
    # rounded, is within (phases + 2) * U * sum|terms| of their fsum
    phases = -(-width // stride)
    terms = [[[] for _ in range(t_conv)] for _ in range(3)]
    for f in range(3):
        for n in range(t_out):
            for w in range(width):
                terms[f][n * stride + w].append(window[w] * grad[f, n])
    want = np.array([[math.fsum(t) for t in row] for row in terms])
    bound = (phases + 2) * U * np.array([[math.fsum(map(abs, t)) for t in row] for row in terms])
    got = fe.lowpass_transpose(grad, window, stride, t_conv)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= bound)
    # adjoint of the forward decimation: <decimate(p), g> == <p, transpose(g)>
    p = rng.normal(size=(3, t_conv))
    lhs = (fe.lowpass_decimate(p, window, stride) * grad).sum()
    assert lhs == pytest.approx((p * want).sum(), rel=1e-12)


def _padded_rfft_backward(front, cache, upstream):
    """LearnableFrontend.backward step for step, but each block of upstream rows
    is the rfft of its own lags alone, zero-padded to L by rfft(a, n)."""
    cfg = front.config
    normed, logged, pooled = cache["normed"], cache["logged"], cache["pooled"]
    std = np.sqrt(logged.var(axis=1, keepdims=True) + cfg.norm_epsilon)
    d_logged = (upstream - upstream.mean(axis=1, keepdims=True)
                - normed * (upstream * normed).mean(axis=1, keepdims=True)) / std
    d_pooled = 2.0 * d_logged / (pooled + cfg.log_epsilon)
    bank, length = cache["bank"], cache["length"]
    width = front.params["filter_real"].shape[1]
    t_conv = cache["x"].size - width + 1
    corr = cache["rows"][:, :t_conv]
    two_k = corr.shape[0]
    d_power = fe.lowpass_transpose(d_pooled, front.lowpass_window, cache["stride"], t_conv)
    rows = corr * np.concatenate([d_power, d_power])
    step = length - width + 1
    pre = fe.preemphasize(fe.Waveform(cache["x"], RATE), front.params["preemphasis"]).samples
    g_spec = np.zeros(bank.shape, np.complex128)
    d_pre = np.zeros(-(-t_conv // step) * step + width - 1)
    for start in range(0, t_conv, step):
        d_spec = np.conj(np.fft.rfft(rows[:, start : start + step], length, axis=1))
        g_spec += d_spec * np.fft.rfft(pre[start : start + length], length)
        d_pre[start : start + length] += np.fft.irfft(np.conj((d_spec * bank).sum(axis=0)),
                                                      length)
    g_bank = np.fft.irfft(g_spec, length, axis=1)[:, :width]
    d_pre = d_pre[: pre.size]
    x = cache["x"]
    g_pre = np.array([np.dot(d_pre[1:], x[:-1]), np.dot(d_pre, x)])
    return {"preemphasis": g_pre, "filter_real": g_bank[: two_k // 2],
            "filter_imag": g_bank[two_k // 2 :]}


@pytest.mark.parametrize("n", [1600, 1601, 1920, 9120, 16320])
def test_backward_bit_equal_to_padded_block_transforms(n):
    # one block, one lag past it, a full block and a short one, whole blocks
    # and a short last one: backward transforms each block at full length
    # with the next block's first W - 1 columns zeroed for it, which must
    # give the bits of transforming the block's own lags zero-padded
    rng = np.random.default_rng(44)
    front = fe.LearnableFrontend(fe.FrontendConfig(num_filters=4), RATE,
                                 rng=np.random.default_rng(45))
    x = fe.Waveform(0.3 * rng.normal(size=n), RATE)
    feat, cache = front.forward(x, want_cache=True)
    upstream = rng.normal(size=feat.shape)
    # the bank spectrum, an rfft of the filters zero-padded to L, is one by rfft(a, n) too
    filters = np.concatenate([front.params["filter_real"], front.params["filter_imag"]])
    padded = np.conj(np.fft.rfft(filters, cache["length"], axis=1))
    assert np.array_equal(cache["bank"].view(np.uint64), padded.view(np.uint64))
    want = _padded_rfft_backward(front, cache, upstream)
    got = front.backward(cache, upstream)
    for key in want:
        assert np.array_equal(got[key], want[key]), key


def test_lowpass_too_short():
    with pytest.raises(InsufficientInputError):
        fe.lowpass_decimate(np.ones((1, 3)), fe.squared_hanning(8), 2)


def test_log_compress_values():
    assert fe.log_compress(np.zeros(1), 1e-6)[0] == pytest.approx(-13.815510557964274)
    eps = 1e-6
    assert fe.log_compress(np.array([1.0 - eps]), eps)[0] == pytest.approx(0.0, abs=1e-12)


def test_log_compress_matches_scalar_loop():
    rng = np.random.default_rng(4)
    v = rng.random((3, 5))
    got = fe.log_compress(v, 1e-6)
    want = np.array([[np.log(val + 1e-6) for val in row] for row in v])
    assert np.array_equal(got, want)


def test_log_compress_rejects_negative():
    with pytest.raises(DomainError):
        fe.log_compress(np.array([-0.1]), 1e-6)


def test_instance_normalize_constant_channel():
    out = fe.instance_normalize(np.full((1, 10), 7.0), 1e-5)
    assert np.allclose(out, 0.0)


def test_instance_normalize_two_point_channel():
    out = fe.instance_normalize(np.array([[-1.0, 1.0]]), 1e-5)
    assert np.allclose(out, [[-1.0, 1.0]], atol=1e-4)


def test_instance_normalize_statistics():
    rng = np.random.default_rng(5)
    v = rng.normal(2.0, 3.0, size=(4, 1000))
    out = fe.instance_normalize(v, 1e-5)
    assert np.all(np.abs(out.mean(axis=1)) <= 1e-6)
    assert np.all(np.abs(out.var(axis=1) - 1.0) <= 1e-4)


def test_forward_frame_count_formula():
    # 1 s at 16 kHz with 25 ms widths / 10 ms stride: T_conv = 15601,
    # T_out = (15601 - 400)//160 + 1 = 96
    config = fe.FrontendConfig(num_filters=4)
    front = fe.LearnableFrontend(config, RATE, rng=np.random.default_rng(0))
    x = fe.Waveform(np.random.default_rng(6).normal(size=RATE), RATE)
    feat = front.forward(x)
    assert feat.shape == (4, 96)
    assert feat.shape[1] == fe.num_output_frames(RATE, config, RATE)


def test_forward_silence_is_all_zero():
    front = toy_frontend()
    feat = front.forward(fe.Waveform(np.zeros(400), RATE))
    assert np.allclose(feat, 0.0)


@settings(max_examples=25, deadline=None)
@given(
    arrays(
        np.float64,
        st.integers(min_value=60, max_value=400),
        elements=st.floats(-1.0, 1.0, allow_nan=False),
    )
)
def test_forward_always_finite(samples):
    front = toy_frontend()
    feat = front.forward(fe.Waveform(samples, RATE))
    assert np.all(np.isfinite(feat))


def test_forward_too_short():
    with pytest.raises(InsufficientInputError):
        toy_frontend().forward(fe.Waveform(np.zeros(30), RATE))


def _frontend_loss(front, x, weights):
    feat = front.forward(x)
    return float((feat * weights).sum())


def test_backward_zero_upstream():
    front = toy_frontend()
    x = fe.Waveform(np.random.default_rng(7).normal(size=300), RATE)
    feat, cache = front.forward(x, want_cache=True)
    grads = front.backward(cache, np.zeros_like(feat))
    assert all(np.allclose(g, 0.0) for g in grads.values())


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(8)
    front = toy_frontend(seed=11)
    x = fe.Waveform(rng.normal(size=240), RATE)  # 15 ms probe
    feat, cache = front.forward(x, want_cache=True)
    weights = rng.normal(size=feat.shape)
    grads = front.backward(cache, weights)
    numeric = finite_difference(
        lambda: _frontend_loss(front, x, weights), front.params, step=1e-5
    )
    for key in front.params:
        assert grad_close(grads[key], numeric[key], 1e-4), key


def test_backward_shape_mismatch():
    front = toy_frontend()
    x = fe.Waveform(np.random.default_rng(9).normal(size=300), RATE)
    feat, cache = front.forward(x, want_cache=True)
    with pytest.raises(DimensionError):
        front.backward(cache, np.zeros((feat.shape[0], feat.shape[1] + 1)))


def test_lowpass_window_never_trained():
    front = toy_frontend()
    before = front.lowpass_window.copy()
    x = fe.Waveform(np.random.default_rng(10).normal(size=300), RATE)
    for _ in range(5):
        feat, cache = front.forward(x, want_cache=True)
        grads = front.backward(cache, np.ones_like(feat))
        for key in front.params:
            front.params[key] -= 0.01 * grads[key]
    assert np.array_equal(front.lowpass_window, before)
    assert "lowpass" not in {k.lower() for k in grads}


def test_mel_frontend_tone_peak():
    n = np.arange(2 * RATE) / RATE
    x = fe.Waveform(0.5 * np.sin(2 * np.pi * 1000 * n), RATE)
    feat = fe.MelFrontend(fe.FrontendConfig(num_filters=40), RATE).forward(x)
    # the triangles' centers: the inner mel-spaced edges from 0 to Nyquist
    centers = fe.mel_to_hz(np.linspace(0.0, fe.hz_to_mel(RATE / 2.0), 42))[1:-1]
    # pre-normalization energies carry the peak; recompute them directly
    energies = feat  # normalized, but the tone channel still dominates variance
    hot = int(np.argmax(energies.mean(axis=1)))
    spacing = np.diff(centers).max()
    assert abs(centers[hot] - 1000.0) <= spacing


def test_mel_frontend_silence():
    feat = fe.MelFrontend(fe.FrontendConfig(num_filters=12), RATE).forward(
        fe.Waveform(np.zeros(RATE), RATE))
    assert np.allclose(feat, 0.0)


def test_mel_and_learnable_frame_counts_agree():
    rng = np.random.default_rng(12)
    for n in (900, 1234, 16000, 20001):
        x = fe.Waveform(rng.normal(size=n) * 0.1, RATE)
        learn = fe.LearnableFrontend(fe.FrontendConfig(num_filters=4), RATE).forward(x)
        mel = fe.MelFrontend(fe.FrontendConfig(num_filters=40), RATE).forward(x)
        assert mel.shape == (40, learn.shape[1])


@pytest.mark.parametrize("kind", sorted(fe.FRONTENDS))
def test_frontend_rejects_a_wave_at_another_rate(kind):
    front = fe.FRONTENDS[kind](fe.FrontendConfig(num_filters=4), RATE)
    wave = fe.Waveform(np.random.default_rng(3).normal(size=RATE // 2) * 0.1, RATE // 2)
    with pytest.raises(DimensionError, match="8000 != front-end rate 16000"):
        front.forward(wave)
    with pytest.raises(DimensionError):
        front.forward(wave, want_cache=True)


def test_mel_frontend_has_no_parameters():
    front = fe.MelFrontend(fe.FrontendConfig(num_filters=4), RATE)
    x = fe.Waveform(np.random.default_rng(4).normal(size=2000) * 0.1, RATE)
    feat, cache = front.forward(x, want_cache=True)
    assert np.array_equal(feat, front.forward(x))
    assert front.params == {} and fe.MelFrontend.param_shapes(front.config, RATE) == {}
    assert front.backward(cache, np.ones_like(feat)) == {}
    with pytest.raises(ConfigurationError, match="unexpected arrays.*filter_real"):
        fe.MelFrontend(front.config, RATE, params={"filter_real": np.zeros((4, 400))})


def kernel_centers(real, imag, sample_rate=RATE):
    """analyze_filters' center frequencies (ascending) of a bank of kernels, (k, W) or (W,)."""
    bank = SimpleNamespace(params={"filter_real": np.atleast_2d(real),
                                   "filter_imag": np.atleast_2d(imag)},
                           sample_rate=sample_rate)
    return fe.analyze_filters(bank).center_frequencies


def test_center_frequency_complex_exponential():
    t = np.arange(400) / RATE
    for freq in (2000.0, 3210.0):
        real = np.cos(2 * np.pi * freq * t)
        imag = np.sin(2 * np.pi * freq * t)
        bin_width = RATE / (4 * 400)
        assert abs(kernel_centers(real, imag)[0] - freq) <= bin_width


def test_center_frequency_real_cosine():
    t = np.arange(400) / RATE
    real = np.cos(2 * np.pi * 500 * t)
    bin_width = RATE / (4 * 400)
    assert abs(kernel_centers(real, np.zeros(400))[0] - 500.0) <= bin_width


def test_center_frequency_dc():
    assert kernel_centers(np.ones(64), np.zeros(64))[0] == 0.0


def test_center_frequency_zero_kernel():
    with pytest.raises(DegenerateFilterError):
        kernel_centers(np.zeros(16), np.zeros(16))


def test_analyze_filters_sorted_exponentials():
    width = 400
    t = np.arange(width) / RATE
    freqs = 100.0 * np.arange(1, 6)
    rng = np.random.default_rng(13)
    order = rng.permutation(5)
    real = np.stack([np.cos(2 * np.pi * f * t) for f in freqs[order]])
    imag = np.stack([np.sin(2 * np.pi * f * t) for f in freqs[order]])
    front = fe.LearnableFrontend(
        fe.FrontendConfig(num_filters=5),
        RATE,
        params={"preemphasis": np.array([-0.97, 1.0]), "filter_real": real, "filter_imag": imag},
    )
    analysis = fe.analyze_filters(front)
    bin_width = RATE / (4 * width)
    assert np.all(np.abs(analysis.center_frequencies - freqs) <= bin_width)
    assert np.all(np.diff(analysis.center_frequencies) >= 0)


def test_analyze_filters_single_filter():
    front = toy_frontend()
    front.params["filter_real"] = front.params["filter_real"][:1]
    front.params["filter_imag"] = front.params["filter_imag"][:1]
    front.config = dataclasses.replace(front.config, num_filters=1)  # TOY stays as it is
    analysis = fe.analyze_filters(front)
    assert analysis.center_frequencies.shape == (1,)
    assert analysis.power_spectra.shape[0] == 1


def test_analyze_filters_random_init_in_range():
    front = fe.LearnableFrontend(fe.FrontendConfig(num_filters=8), RATE,
                                 rng=np.random.default_rng(14))
    analysis = fe.analyze_filters(front)
    assert np.all(analysis.center_frequencies >= 0.0)
    assert np.all(analysis.center_frequencies <= RATE / 2)
    assert np.all(analysis.power_spectra >= 0.0)


def test_config_rejects_fractional_samples():
    with pytest.raises(ConfigurationError):
        fe.FrontendConfig(filter_width_ms=25.3).filter_width(RATE)


@pytest.mark.parametrize("field", ["filter_width_ms", "lowpass_width_ms", "stride_ms",
                                   "log_epsilon", "norm_epsilon"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_config_rejects_non_finite_settings(field, value):
    with pytest.raises(ConfigurationError):
        fe.FrontendConfig(**{field: value})


def _pass(front, samples, upstream):
    """Features without a cache, then features and gradients with one."""
    x = fe.Waveform(samples, RATE)
    plain = front.forward(x)
    feat, cache = front.forward(x, want_cache=True)
    return plain, feat, front.backward(cache, upstream)


def _upstream(rng, n, config=TOY):
    return rng.normal(size=(config.num_filters, fe.num_output_frames(n, config, RATE)))


def test_buffer_reuse_across_lengths_is_bit_equal_to_a_fresh_frontend():
    # short, long, short, long: buffers grow, then serve shorter signals from their heads
    rng = np.random.default_rng(30)
    warm = toy_frontend(seed=3)
    for n in (200, 1500, 260, 1400, 1500):
        samples = 0.3 * rng.normal(size=n)
        upstream = _upstream(rng, n)
        got = _pass(warm, samples, upstream)
        want = _pass(toy_frontend(seed=3), samples, upstream)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), n
        assert np.array_equal(got[0], got[1]), n
        for key in want[2]:
            assert np.array_equal(got[2][key], want[2][key]), (n, key)


@pytest.mark.parametrize("between", ["cached", "plain"])
def test_a_pass_between_forward_and_backward_leaves_the_cache_intact(between):
    rng = np.random.default_rng(31)
    samples, other = 0.3 * rng.normal(size=900), 0.3 * rng.normal(size=1300)
    upstream = _upstream(rng, 900)
    front = toy_frontend(seed=4)
    front.forward(fe.Waveform(other, RATE))  # leaves a spare workspace
    feat, cache = front.forward(fe.Waveform(samples, RATE), want_cache=True)
    if between == "cached":
        _, other_cache = front.forward(fe.Waveform(other, RATE), want_cache=True)
    else:
        front.forward(fe.Waveform(other, RATE))
    grads = front.backward(cache, upstream)
    want_feat, want_cache = toy_frontend(seed=4).forward(fe.Waveform(samples, RATE),
                                                         want_cache=True)
    assert np.array_equal(feat, want_feat)
    want = toy_frontend(seed=4).backward(want_cache, upstream)
    for key in want:
        assert np.array_equal(grads[key], want[key]), key
    if between == "cached":  # the other cache is still whole too
        other_up = _upstream(rng, 1300)
        got = front.backward(other_cache, other_up)
        want = _pass(toy_frontend(seed=4), other, other_up)[2]
        for key in want:
            assert np.array_equal(got[key], want[key]), key


def test_backward_twice_on_one_cache_is_refused():
    front = toy_frontend()
    feat, cache = front.forward(fe.Waveform(np.random.default_rng(32).normal(size=300), RATE),
                                want_cache=True)
    front.backward(cache, np.ones_like(feat))
    # the backward worked in the cache's arrays and removed them from it
    assert not {"rows", "blocks", "bank"} & cache.keys()
    with pytest.raises(ConvSpeechError, match="already"):
        front.backward(cache, np.ones_like(feat))


def test_warm_forward_allocates_less_than_one_row_stack():
    config = fe.FrontendConfig(num_filters=8)
    front = fe.LearnableFrontend(config, RATE, rng=np.random.default_rng(33))
    x = fe.Waveform(0.3 * np.random.default_rng(34).normal(size=16000), RATE)
    front.forward(x)
    tracemalloc.start()
    try:
        front.forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stack = 2 * config.num_filters * fe.fft_length(x.samples.size) * 8
    assert peak < stack


def _traced(run):
    """(result of run(), peak bytes that run allocated) by tracemalloc."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _workspace_bytes(k, n, width, length):
    """Bytes of the rows, blocks and product buffers that correlate_blocks makes for
    n samples, k filters of `width` taps and blocks of `length`."""
    step, bins = length - width + 1, length // 2 + 1
    count = -(-(n - width + 1) // step)
    return 8 * 2 * k * (count * step + width - 1) + 16 * count * bins + 16 * 2 * k * bins


def test_warm_cached_pass_makes_no_row_sized_temporaries():
    # a cached forward allocates its workspace (the spare is gone after a
    # backward) and k power rows, beside single rows and (k, frames) arrays;
    # its backward allocates the k low-pass adjoint rows, then three
    # (2k, L/2+1) complex spectra and the (2k, W - 1) stash, beside those
    config = fe.FrontendConfig(num_filters=8)
    front = fe.LearnableFrontend(config, RATE, rng=np.random.default_rng(33))
    x = fe.Waveform(0.3 * np.random.default_rng(34).normal(size=16000), RATE)
    feat, cache = front.forward(x, want_cache=True)
    upstream = np.random.default_rng(35).normal(size=feat.shape)
    front.backward(cache, upstream)
    (feat, cache), forward_peak = _traced(lambda: front.forward(x, want_cache=True))
    _, backward_peak = _traced(lambda: front.backward(cache, upstream))
    k, width, length, t_conv = config.num_filters, 400, 1600, 16000 - 400 + 1
    stack = 2 * k * fe.fft_length(x.samples.size) * 8
    own = _workspace_bytes(k, 16000, width, length) + 8 * k * t_conv
    assert forward_peak < own + stack / 8
    adjoint = 8 * k * -(-t_conv // 160) * 160  # whole strides
    spectra = 3 * 16 * 2 * k * (length // 2 + 1) + 8 * 2 * k * (width - 1)
    assert backward_peak < max(adjoint, spectra) + stack / 8


def test_one_cached_pass_stays_under_its_memory_bound():
    # a warm cached forward plus backward at 14,400 samples and 8 filters
    # peaks at 3.41 MB (to the nearest 10 kB) over what it started from, and
    # leaves the front-end holding nothing more: no spare workspace
    config = fe.FrontendConfig(num_filters=8)
    front = fe.LearnableFrontend(config, RATE, rng=np.random.default_rng(46))
    x = fe.Waveform(0.3 * np.random.default_rng(47).normal(size=14400), RATE)

    def one_pass():
        feat, cache = front.forward(x, want_cache=True)
        front.backward(cache, np.ones_like(feat))
        return feat.nbytes

    tracemalloc.start()
    try:
        one_pass()
        kept = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        frame_array = one_pass()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert front._spare is None
    assert peak - kept <= 3.415e6
    assert retained - kept < frame_array  # not even one (k, frames) array


def test_a_live_cache_keeps_only_rows_blocks_and_frame_arrays():
    config = fe.FrontendConfig(num_filters=8)
    x = fe.Waveform(0.3 * np.random.default_rng(49).normal(size=14400), RATE)
    _pass(fe.LearnableFrontend(config, RATE), x.samples, _upstream(np.random.default_rng(48),
          x.samples.size, config))  # numpy makes and keeps its FFT plans for this L
    front = fe.LearnableFrontend(config, RATE, rng=np.random.default_rng(48))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        feat, cache = front.forward(x, want_cache=True)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert front._spare is None  # the product buffer and the power rows are gone
    # the front-end itself keeps the bank spectrum and copies of the filters
    _, copies, bank = front._spectrum
    own = bank.nbytes + sum(c.nbytes for c in copies)
    frame_arrays = 4 * feat.nbytes  # pooled, logged and normed, with room to spare
    assert kept - own <= cache["rows"].nbytes + cache["blocks"].nbytes + frame_arrays
    front.backward(cache, np.ones_like(feat))


def test_a_growing_workspace_never_holds_two_generations_of_a_buffer():
    # short, then long, without a cache: each buffer is dropped before its
    # larger replacement is made, so the long pass peaks at its own buffers,
    # two signal-length rows (pre-emphasis and its term) and (k, frames) arrays
    config = fe.FrontendConfig(num_filters=8)
    front = fe.LearnableFrontend(config, RATE, rng=np.random.default_rng(50))
    rng = np.random.default_rng(51)
    short = fe.Waveform(0.3 * rng.normal(size=9600), RATE)
    long = fe.Waveform(0.3 * rng.normal(size=16000), RATE)
    tracemalloc.start()
    try:
        front.forward(short)
        short_buffers = sum(flat.nbytes for flat in front._spare.values())
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        feat = front.forward(long)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    long_buffers = sum(flat.nbytes for flat in front._spare.values())
    margin = 2 * long.samples.nbytes + 8 * feat.nbytes
    assert margin < front._spare["rows"].nbytes / 2  # two generations of rows break the bound
    assert peak - (before - short_buffers) <= long_buffers + margin


class _NanEmpty:
    """numpy, but every np.empty array is filled with NaN (complex NaN for complex dtypes)."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(*args, **kwargs):
        out = np.empty(*args, **kwargs)
        out.fill(np.nan)
        return out


def test_stale_pool_contents_never_reach_the_results(monkeypatch):
    # NaN in the spare workspace's buffers before each forward of long-then-short
    # passes, and in every buffer the front-end allocates afresh with np.empty:
    # a forward's workspace when there is no spare, and a backward's spectra
    # and stash (the bank spectrum is kept outside the workspace); 1,600
    # samples are one block as long as the signal, so no padding is left, and
    # 1,920 are a full block and a short one
    config = fe.FrontendConfig(num_filters=8)
    rng = np.random.default_rng(39)
    warm = fe.LearnableFrontend(config, RATE, rng=np.random.default_rng(40))
    assert fe.block_length(1600, 400) == 1600 and fe.block_length(1920, 400) == 1600

    def stale(work):
        for flat in (work or {}).values():
            flat.fill(np.nan)

    cases = []
    for n in (16320, 6750, 1920, 1600):
        x = fe.Waveform(0.3 * rng.normal(size=n), RATE)
        upstream = _upstream(rng, n, config)
        fresh = fe.LearnableFrontend(config, RATE, rng=np.random.default_rng(40))
        cases.append((n, x, upstream, _pass(fresh, x.samples, upstream)))
    monkeypatch.setattr(fe, "np", _NanEmpty())
    for n, x, upstream, (want_plain, want, want_grads) in cases:
        stale(warm._spare)
        plain = warm.forward(x)
        stale(warm._spare)
        feat, cache = warm.forward(x, want_cache=True)  # in the stale spare workspace
        grads = warm.backward(cache, upstream)
        assert warm._spare is None  # so the next plain forward starts a fresh workspace
        assert np.array_equal(plain, want_plain) and np.array_equal(feat, want), n
        for key in want_grads:
            assert np.array_equal(grads[key], want_grads[key]), (n, key)


def test_pool_keeps_no_buffer_over_the_limit():
    # long, then short: the long passes' rows buffer is over the limit, so
    # after the short pass the front-end holds no more than a short pass's buffers
    config = fe.FrontendConfig(num_filters=64)
    front = fe.LearnableFrontend(config, RATE, rng=np.random.default_rng(35))
    rng = np.random.default_rng(36)
    n_long = fe.POOL_BUFFER_LIMIT // (2 * config.num_filters * 8) + 1
    long_x = fe.Waveform(0.3 * rng.normal(size=n_long), RATE)
    short_x = fe.Waveform(0.3 * rng.normal(size=1000), RATE)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        feat, cache = front.forward(long_x, want_cache=True)
        front.backward(cache, np.ones_like(feat))
        front.forward(long_x)
        feat, cache = front.forward(short_x, want_cache=True)
        front.backward(cache, np.ones_like(feat))
        del feat, cache
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the long rows buffer alone is over the limit; the short buffers take ~5.1 MB
    assert 0 < kept < fe.POOL_BUFFER_LIMIT


def test_only_an_uncached_forward_keeps_its_three_buffers():
    # one block (L = n_fft = 1000), so rows and product are (2k, ~L) sized; a
    # cached pass leaves no spare workspace, and a forward without a cache
    # keeps its rows, blocks and product; the kept bank spectrum lives beside
    # the filters' copies outside the pool
    front = fe.LearnableFrontend(fe.FrontendConfig(num_filters=64), RATE,
                                 rng=np.random.default_rng(37))
    x = fe.Waveform(0.3 * np.random.default_rng(38).normal(size=1000), RATE)
    for _ in range(2):
        feat, cache = front.forward(x, want_cache=True)
        front.backward(cache, np.ones_like(feat))
        assert front._spare is None
        front.forward(x)
        assert sorted(front._spare) == ["blocks", "product", "rows"]
    length, (real, imag), bank = front._spectrum
    assert bank.shape == (128, length // 2 + 1) and real.shape == imag.shape == (64, 400)
    # rows (128, 1,000) 1.02 MB, product and bank (128, 501) complex 1.03 MB
    # each, blocks (1, 501) complex 8 kB
    assert sum(flat.nbytes for flat in front._spare.values()) + bank.nbytes <= 3.1e6


def test_cached_forward_makes_power_rows_not_squared_correlations():
    # 14,400 samples, 8 filters: 12 blocks of L = 1,600 and t_conv = 14,001;
    # a cached forward sums the power into k new rows beside its workspace,
    # the pre-emphasized signal and (k, frames) arrays; 2k squared
    # correlations would take another k rows, 0.90 MB
    config = fe.FrontendConfig(num_filters=8)
    front = fe.LearnableFrontend(config, RATE, rng=np.random.default_rng(46))
    x = fe.Waveform(0.3 * np.random.default_rng(47).normal(size=14400), RATE)
    feat, cache = front.forward(x, want_cache=True)
    front.backward(cache, np.ones_like(feat))
    (feat, cache), peak = _traced(lambda: front.forward(x, want_cache=True))
    k, t_conv = config.num_filters, 14400 - 400 + 1
    power_row = 8 * t_conv
    assert peak < _workspace_bytes(k, 14400, 400, 1600) + k * power_row + 2 * x.samples.nbytes
    # the pool's budget, kept by a forward without a cache: rows
    # (2k, 12 * 1,201 + 399) 1.90 MB, product (2k, 801) complex 0.21 MB and
    # blocks (12, 801) complex 0.15 MB
    front.forward(x)
    assert sum(flat.nbytes for flat in front._spare.values()) <= 2.3e6


def _fresh_pass(front, samples, upstream):
    """_pass through a new front-end with copies of `front`'s parameters."""
    params = {key: value.copy() for key, value in front.params.items()}
    return _pass(fe.LearnableFrontend(front.config, RATE, params=params), samples, upstream)


@pytest.mark.parametrize("change", ["coefficient", "zero_sign"])
def test_kept_spectrum_follows_in_place_filter_changes(change):
    rng = np.random.default_rng(41)
    front = toy_frontend(seed=5)
    front.params["filter_imag"][1, 2] = 0.0
    samples, upstream = 0.3 * rng.normal(size=700), _upstream(rng, 700)
    before = _pass(front, samples, upstream)
    spectrum = front._spectrum
    _pass(front, samples, upstream)
    assert front._spectrum is spectrum  # unchanged filters: the spectrum is reused
    if change == "coefficient":
        front.params["filter_real"][2, 7] += 0.25
    else:
        front.params["filter_imag"][1, 2] = -0.0
    got = _pass(front, samples, upstream)
    assert front._spectrum is not spectrum
    assert np.signbit(front._spectrum[1][1][1, 2]) == (change == "zero_sign")
    want = _fresh_pass(front, samples, upstream)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    for key in want[2]:
        assert np.array_equal(got[2][key], want[2][key]), key
    if change == "coefficient":
        assert not np.array_equal(got[0], before[0])


def test_cache_before_an_in_place_filter_step_keeps_its_spectrum():
    rng = np.random.default_rng(42)
    front = toy_frontend(seed=6)
    samples, upstream = 0.3 * rng.normal(size=900), _upstream(rng, 900)
    want = _fresh_pass(front, samples, upstream)[2]
    feat, cache = front.forward(fe.Waveform(samples, RATE), want_cache=True)
    for key in ("filter_real", "filter_imag"):
        front.params[key] -= 0.1 * want[key]
    front.forward(fe.Waveform(samples, RATE))  # recomputes the kept spectrum
    grads = front.backward(cache, upstream)
    for key in want:
        assert np.array_equal(grads[key], want[key]), key


def _golden_cases():
    """6 seeded signals of 160 to 700 samples, short and long in turn, each with
    its own seeded front-end and upstream gradient."""
    for case in range(6):
        rng = np.random.default_rng(2000 + case)
        n = int(rng.integers(160, 400) if case % 2 == 0 else rng.integers(500, 700))
        yield toy_frontend(seed=case), 0.3 * rng.normal(size=n), _upstream(rng, n)


def _golden_row(front, samples, upstream) -> dict:
    plain, feat, grads = _pass(front, samples, upstream)
    hexes = lambda a: [float(v).hex() for v in a.ravel()]  # noqa: E731
    return {"features": hexes(plain), "cached_features": hexes(feat),
            **{key: hexes(g) for key, g in grads.items()}}


def test_frontend_outputs_match_golden_file():
    # frontend_golden.json pins the learnable front-end's features and
    # gradients; regenerate it (run this file as a script) only for a change
    # that is meant to alter them
    want = json.loads(GOLDEN.read_text())
    got = [_golden_row(*case) for case in _golden_cases()]
    assert len(got) == len(want) == 6
    for case, (row, expected) in enumerate(zip(got, want)):
        assert row.keys() == expected.keys(), case
        for name, values in row.items():
            x = np.array([float.fromhex(v) for v in values])
            y = np.array([float.fromhex(v) for v in expected[name]])
            assert x.shape == y.shape, (case, name)
            assert np.all((x == y) | (np.abs(x - y) <= 1e-12 * np.abs(y))), (case, name)


if __name__ == "__main__":
    rows = [json.dumps(_golden_row(*case)) for case in _golden_cases()]
    GOLDEN.write_text("[\n" + ",\n".join(rows) + "\n]\n")
