import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convspeech import acoustic as ac
from convspeech.errors import ConfigurationError, DimensionError, TrainingDivergenceError
from convspeech.optim import (SgdOptimizer, TrainSettings, clip_gradients, global_norm,
                              run_epochs)

from oracles import finite_difference, grad_close, naive_conv1d, naive_glu


def tiny_model(seed=0, dropout=0.0, alphabet=4):
    config = ac.AcousticModelConfig(
        layers=[
            ac.ConvLayerSpec(3, 5, kernel_width=3, dropout_rate=dropout),
            ac.ConvLayerSpec(5, 4, kernel_width=3, dropout_rate=dropout),
        ],
        alphabet_size=alphabet,
    )
    return ac.AcousticModel(config, rng=np.random.default_rng(seed))


def test_glu_zero_gate_halves():
    a = np.random.default_rng(0).normal(size=(2, 6))
    pre = np.concatenate([a, np.zeros_like(a)], axis=0)
    assert np.allclose(ac.glu(pre)[0], a / 2.0)


def test_glu_saturated_gate_passes_through():
    a = np.random.default_rng(1).normal(size=(2, 6))
    pre = np.concatenate([a, np.full_like(a, 50.0)], axis=0)
    assert np.allclose(ac.glu(pre)[0], a, atol=1e-12)


def test_glu_matches_scalar_oracle():
    pre = np.random.default_rng(2).normal(size=(6, 9))
    got = ac.glu(pre)[0]
    want = naive_glu(pre)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_glu_odd_channels_rejected():
    with pytest.raises(ConfigurationError):
        ac.glu(np.zeros((3, 4)))


def test_conv1d_identity_kernel():
    x = np.random.default_rng(3).normal(size=(2, 7))
    weight = np.eye(2)[:, :, None]  # width-1 identity channel map
    out, _ = ac.conv1d(x, weight, np.zeros(2))
    assert np.allclose(out, x)


def test_conv1d_zero_weights_give_bias():
    x = np.random.default_rng(4).normal(size=(3, 5))
    out, _ = ac.conv1d(x, np.zeros((2, 3, 3)), np.array([1.5, -0.5]))
    assert np.allclose(out[0], 1.5) and np.allclose(out[1], -0.5)


def test_conv1d_matches_naive():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 11))
    # odd and even widths at the default padding, then causal convs (p = K - 1)
    for kw, p in [(5, None), (3, None), (1, None), (4, None), (2, None), (5, 4), (4, 3)]:
        weight = rng.normal(size=(4, 3, kw))
        bias = rng.normal(size=4)
        got, _ = ac.conv1d(x, weight, bias, p)
        p = kw // 2 if p is None else p
        want = naive_conv1d(x, weight, bias, pad_left=p, pad_right=kw - 1 - p)
        assert got.shape == (4, 11), (kw, p)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-10, (kw, p)


def test_conv1d_backward_input_gradient_bit_equal_to_scatter():
    rng = np.random.default_rng(52)
    weight = rng.normal(size=(4, 3, 5))
    out, cache = ac.conv1d(rng.normal(size=(3, 11)), weight, np.zeros(4))
    d_out = rng.normal(size=out.shape)
    _, _, d_x = ac.conv1d_backward(cache, d_out)
    # the per-tap scatter formula with np.add.at
    d_cols = (weight.reshape(4, -1).T @ d_out).reshape(3, 5, -1)
    d_padded = np.zeros((3, 11 + 5 - 1))
    positions = np.arange(out.shape[1])
    for w in range(5):
        np.add.at(d_padded, (slice(None), positions + w), d_cols[:, w, :])
    assert np.array_equal(d_x, d_padded[:, 2 : 2 + 11])


def test_conv1d_channel_mismatch():
    with pytest.raises(DimensionError):
        ac.conv1d(np.zeros((2, 5)), np.zeros((1, 3, 3)), np.zeros(1))


def test_conv1d_refuses_a_pad_outside_the_kernel():
    for width, pad_left in ((1, 1), (3, 3), (3, -1)):
        with pytest.raises(DimensionError, match="pad_left"):
            ac.conv1d(np.zeros((2, 5)), np.zeros((1, 2, width)), np.zeros(1), pad_left)


def test_zero_norm_direction_is_refused():
    # weight norm divides each output row of v by its norm: NaN emissions otherwise
    config = ac.AcousticModelConfig([ac.ConvLayerSpec(3, 4, 3)], alphabet_size=5)
    params = ac.AcousticModel(config, rng=np.random.default_rng(8)).params
    params["layer0_v"][2] = 0.0
    with pytest.raises(ConfigurationError, match="model array 'layer0_v' row 2 has norm 0"):
        ac.AcousticModel(config, params=params)


def test_forward_width1_layer_is_linear_map():
    config = ac.AcousticModelConfig([ac.ConvLayerSpec(2, 2, 1)], alphabet_size=3)
    model = ac.AcousticModel(config, rng=np.random.default_rng(6))
    # saturate the gates so the GLU passes the linear half through
    model.params["layer0_b"] = np.array([0.0, 0.0, 60.0, 60.0])
    x = np.random.default_rng(7).normal(size=(2, 5))
    emissions = model.forward(x)
    w0 = ac.effective_weight(model.params["layer0_v"], model.params["layer0_g"])[:2, :, 0]
    wp = ac.effective_weight(model.params["proj_v"], model.params["proj_g"])[:, :, 0]
    expect = wp @ (w0 @ x) + model.params["proj_b"][:, None]
    assert np.allclose(emissions.scores.T, expect, atol=1e-10)


def test_forward_deterministic_without_dropout():
    model = tiny_model()
    x = np.random.default_rng(8).normal(size=(3, 9))
    a = model.forward(x, rng=np.random.default_rng(1))
    b = model.forward(x)
    assert np.array_equal(a.scores, b.scores)


def test_forward_matches_layerwise_oracle():
    model = tiny_model(seed=9)
    x = np.random.default_rng(10).normal(size=(3, 8))
    emissions = model.forward(x)
    h = x
    for i, spec in enumerate(model.config.layers):
        w = ac.effective_weight(model.params[f"layer{i}_v"], model.params[f"layer{i}_g"])
        pre = naive_conv1d(h, w, model.params[f"layer{i}_b"],
                           pad_left=spec.kernel_width // 2, pad_right=spec.kernel_width // 2)
        h = naive_glu(pre)
    wp = ac.effective_weight(model.params["proj_v"], model.params["proj_g"])
    want = naive_conv1d(h, wp, model.params["proj_b"], pad_left=0, pad_right=0).T
    denom = np.max(np.abs(want))
    assert np.max(np.abs(emissions.scores - want)) / denom <= 1e-8


def test_weight_norm_scale_invariance():
    model = tiny_model(seed=13)
    x = np.random.default_rng(14).normal(size=(3, 6))
    base = model.forward(x).scores
    model.params["layer0_v"] *= 3.7
    scaled = model.forward(x).scores
    assert np.max(np.abs(base - scaled)) / np.max(np.abs(base)) <= 1e-10


def test_backward_zero_upstream():
    model = tiny_model(seed=15)
    x = np.random.default_rng(16).normal(size=(3, 6))
    emissions, cache = model.forward(x, want_cache=True)
    grads, d_input = model.backward(cache, np.zeros_like(emissions.scores))
    assert all(np.allclose(g, 0.0) for g in grads.values())
    assert np.allclose(d_input, 0.0)


def test_backward_matches_finite_differences():
    model = tiny_model(seed=17)
    rng = np.random.default_rng(18)
    x = rng.normal(size=(3, 7))
    weights = rng.normal(size=(7, 4))

    def loss():
        return float((model.forward(x).scores * weights).sum())

    emissions, cache = model.forward(x, want_cache=True)
    grads, _ = model.backward(cache, weights)
    numeric = finite_difference(loss, model.params, step=1e-5)
    for key in model.params:
        assert grad_close(grads[key], numeric[key], 1e-4), key


def test_input_gradient_matches_finite_differences():
    model = tiny_model(seed=19)
    rng = np.random.default_rng(20)
    x = rng.normal(size=(3, 7))
    weights = rng.normal(size=(7, 4))
    emissions, cache = model.forward(x, want_cache=True)
    _, d_input = model.backward(cache, weights)
    numeric = finite_difference(
        lambda: float((model.forward(x).scores * weights).sum()), {"x": x}, step=1e-5
    )
    assert grad_close(d_input, numeric["x"], 1e-4)


def test_even_widths_keep_the_frame_count():
    config = ac.AcousticModelConfig(
        [ac.ConvLayerSpec(3, 4, kernel_width=8), ac.ConvLayerSpec(4, 5, kernel_width=4)],
        alphabet_size=4,
    )
    model = ac.AcousticModel(config, rng=np.random.default_rng(27))
    rng = np.random.default_rng(28)
    x = rng.normal(size=(3, 50))
    weights = rng.normal(size=(50, 4))
    emissions, cache = model.forward(x, want_cache=True)
    assert emissions.scores.shape == (50, 4)
    grads, d_input = model.backward(cache, weights)
    numeric = finite_difference(
        lambda: float((model.forward(x).scores * weights).sum()), {**model.params, "x": x},
        step=1e-5,
    )
    for key, grad in {**grads, "x": d_input}.items():
        assert grad_close(grad, numeric[key], 1e-4), key


def test_backward_shape_mismatch():
    model = tiny_model(seed=21)
    x = np.random.default_rng(22).normal(size=(3, 6))
    emissions, cache = model.forward(x, want_cache=True)
    with pytest.raises(DimensionError):
        model.backward(cache, np.zeros((2, emissions.scores.shape[1] + 1)))


def test_dropout_scaling_preserves_expectation():
    model = tiny_model(seed=23, dropout=0.5)
    x = np.random.default_rng(24).normal(size=(3, 40))
    clean = model.forward(x).scores
    rng = np.random.default_rng(25)
    avg = np.mean(
        [model.forward(x, rng=rng).scores for _ in range(400)], axis=0
    )
    # inverted dropout keeps the expected pre-gate activations unchanged
    assert np.corrcoef(avg.ravel(), clean.ravel())[0, 1] > 0.95


def test_clip_rescales_global_norm():
    grads = {"a": np.array([0.6, 0.8])}  # norm 1.0
    clipped, norm = clip_gradients(grads, 0.2)
    assert norm == pytest.approx(1.0)
    assert global_norm(clipped) == pytest.approx(0.2)


def test_clip_leaves_small_gradients():
    grads = {"a": np.array([0.1])}
    clipped, _ = clip_gradients(grads, 0.2)
    assert np.array_equal(clipped["a"], grads["a"])


def test_sgd_zero_gradients_leave_params():
    opt = SgdOptimizer(TrainSettings(lr=0.1, momentum=0.9, clip=10.0))
    params = {"w": np.array([1.0, 2.0])}
    opt.buffers["w"] = np.array([1.0, 0.0])
    opt.step(params, {"w": np.zeros(2)})
    # buffer decays, so the params still move by lr * mu * old buffer
    assert np.allclose(opt.buffers["w"], [0.9, 0.0])
    params = {"w": np.array([1.0, 2.0])}
    fresh = SgdOptimizer(TrainSettings(lr=0.1, momentum=0.9, clip=10.0))
    fresh.step(params, {"w": np.zeros(2)})
    assert np.allclose(params["w"], [1.0, 2.0])


def test_sgd_two_steps_hand_computed():
    # lr 0.1, mu 0.9, g = 1 both steps: m1 = 1, p1 = 1 - 0.1 = 0.9
    # m2 = 1.9, p2 = 0.9 - 0.19 = 0.71
    opt = SgdOptimizer(TrainSettings(lr=0.1, momentum=0.9, clip=100.0))
    params = {"w": np.array([1.0])}
    opt.step(params, {"w": np.array([1.0])})
    assert params["w"][0] == pytest.approx(0.9)
    opt.step(params, {"w": np.array([1.0])})
    assert params["w"][0] == pytest.approx(0.71)


def test_sgd_step_returns_norm_before_clipping():
    opt = SgdOptimizer(TrainSettings(lr=0.1, momentum=0.0, clip=0.2))
    params = {"a": np.array([1.0, 1.0]), "b": np.array([0.0])}
    norm = opt.step(params, {"a": np.array([0.6, 0.0]), "b": np.array([0.8])})
    assert norm == pytest.approx(1.0)
    # the update itself used the clipped gradient (norm 0.2)
    assert np.allclose(params["a"], [1.0 - 0.1 * 0.12, 1.0])
    assert np.allclose(params["b"], [-0.1 * 0.16])


def test_sgd_rejects_non_finite():
    opt = SgdOptimizer(TrainSettings(lr=0.1))
    with pytest.raises(TrainingDivergenceError):
        opt.step({"w": np.array([1.0])}, {"w": np.array([np.nan])})


@pytest.mark.parametrize("field, value, message", [
    ("lr", np.nan, "learning rate"), ("lr", np.inf, "learning rate"),
    ("lr", -0.1, "learning rate"), ("clip", np.nan, "clip"), ("clip", 0.0, "clip"),
    ("momentum", 1.0, "momentum"), ("momentum", -0.1, "momentum"),
    ("momentum", np.nan, "momentum"), ("batch_size", 0, "batch size"),
    ("epochs", -1, "epochs"),
])
def test_train_settings_refuse_what_no_run_can_use(field, value, message):
    with pytest.raises(ConfigurationError, match=message):
        TrainSettings(**{field: value})


def test_train_settings_keep_the_limits():
    settings = TrainSettings(epochs=0, lr=0.0, momentum=0.0, clip=np.inf, batch_size=1)
    assert SgdOptimizer(settings).clip == np.inf  # +inf: never clip


def test_sgd_descends_quadratic():
    opt = SgdOptimizer(TrainSettings(lr=0.05, momentum=0.9, clip=100.0))
    params = {"w": np.array([3.0])}
    losses = []
    for _ in range(5):
        losses.append(0.5 * params["w"][0] ** 2)
        opt.step(params, {"w": params["w"].copy()})
    assert losses[1] < losses[0]


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=2**32 - 1))
def test_forward_finite_on_random_inputs(frames, seed):
    model = tiny_model(seed=26)
    x = np.random.default_rng(seed).normal(size=(3, frames)) * 5
    emissions = model.forward(x)
    assert np.all(np.isfinite(emissions.scores))
    assert emissions.scores.shape == (frames, 4)


def test_run_epochs_decays_the_learning_rate_linearly_to_zero():
    # 5 items in batches of 2 for 2 epochs: 6 steps, the short last batches included
    lrs = []

    class RecordingSgd(SgdOptimizer):
        def step(self, params, grads):
            lrs.append(self.lr)
            return super().step(params, grads)

    def batch(indices):
        return [1.0] * len(indices), {"w": np.ones(1)}

    def run(epochs):
        settings = TrainSettings(epochs=epochs, lr=0.3, batch_size=2)
        return run_epochs({"w": np.zeros(1)}, RecordingSgd(settings), settings,
                          np.random.default_rng(0), 5, batch,
                          lambda total: ({"train_loss": total / 5}, {}))

    history = run(2)
    assert lrs == [0.3 * (1.0 - s / 6) for s in range(6)]
    assert [record["lr"] for record in history] == [0.3, 0.15]
    lrs.clear()
    assert run(0) == [] and lrs == []
