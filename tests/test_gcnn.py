import json
from pathlib import Path

import numpy as np
import pytest

from convspeech.errors import ConfigurationError, DimensionError
from convspeech.gcnn import GcnnConfig, GcnnLm, batch_nll, train_gcnn
from convspeech.lm import ContextLimitedLM, Vocabulary, perplexity
from convspeech.optim import SgdOptimizer, TrainSettings

from oracles import finite_difference, grad_close

WORDS = tuple(f"w{i}" for i in range(7))
VOCAB = Vocabulary(WORDS + ("<s>", "</s>", "<unk>"))
TOY = GcnnConfig(num_blocks=1, embed_dim=6, bottleneck_dim=3, mid_kernel_width=3)
TWO_BLOCKS = GcnnConfig(num_blocks=2, embed_dim=6, bottleneck_dim=3, mid_kernel_width=3)
GOLDEN = Path(__file__).with_name("gcnn_golden.json")


def toy_lm(seed=0, config=TOY):
    return GcnnLm(VOCAB, config, rng=np.random.default_rng(seed))


def test_config_validation():
    with pytest.raises(ConfigurationError):
        GcnnConfig(mid_kernel_width=4)
    with pytest.raises(ConfigurationError):
        GcnnConfig(num_blocks=0)
    assert GcnnConfig(num_blocks=3, mid_kernel_width=5).receptive_field == 13


def test_rows_are_normalized():
    lm = toy_lm()
    rows = lm.forward(np.array([0, 3, 5, 1]))
    lse = np.log(np.exp(rows).sum(axis=1))
    assert np.max(np.abs(lse)) <= 1e-6


def test_zeroed_blocks_depend_on_current_token_only():
    lm = toy_lm(seed=1)
    for name in ("down", "mid", "up"):
        lm.params[f"block0_{name}_g"] = np.zeros_like(lm.params[f"block0_{name}_g"])
        lm.params[f"block0_{name}_b"] = np.zeros_like(lm.params[f"block0_{name}_b"])
    rows_a = lm.forward(np.array([2, 4, 1]))
    rows_b = lm.forward(np.array([0, 0, 1]))
    # with the residual path alone, each row is a fixed function of its token
    assert np.allclose(rows_a[2], rows_b[2])
    rows_c = lm.forward(np.array([2, 4, 6]))
    assert np.allclose(rows_a[:2], rows_c[:2])


def test_causality_exact():
    lm = toy_lm(seed=2)
    base = lm.forward(np.array([1, 2, 3, 4, 5]))
    for future_pos in (2, 3, 4):
        perturbed = np.array([1, 2, 3, 4, 5])
        perturbed[future_pos] = 0
        rows = lm.forward(perturbed)
        assert np.array_equal(rows[:future_pos], base[:future_pos])


def test_gradients_match_finite_differences():
    lm = toy_lm(seed=3)
    ids = np.array([1, 4, 2, 6])
    rng = np.random.default_rng(4)
    weights = rng.normal(size=(4, len(VOCAB)))

    rows, cache = lm.forward(ids, want_cache=True)
    grads = lm.backward(cache, weights)
    numeric = finite_difference(
        lambda: float((lm.forward(ids) * weights).sum()), lm.params, step=1e-5
    )
    for key in lm.params:
        assert grad_close(grads[key], numeric[key], 1e-4), key


def test_zero_norm_direction_is_refused():
    params = toy_lm().params
    params["block0_mid_v"][1] = 0.0
    with pytest.raises(ConfigurationError, match=r"conv LM array 'block0_mid_v' row 1 has norm 0"):
        GcnnLm(VOCAB, TOY, params=params)


def test_forward_rejects_bad_ids():
    lm = toy_lm()
    with pytest.raises(DimensionError):
        lm.forward(np.array([len(VOCAB)]))
    with pytest.raises(DimensionError):
        lm.forward(np.array([], dtype=np.int64))


def test_score_matches_forward_row():
    lm = toy_lm(seed=5)
    state = lm.start_state()
    logp, state = lm.score(state, 3)
    direct = lm.forward(np.array([VOCAB.begin_id]))[-1][3]
    assert logp == pytest.approx(float(direct))
    logp2, _ = lm.score(state, 5)
    direct2 = lm.forward(np.array([VOCAB.begin_id, 3]))[-1][5]
    assert logp2 == pytest.approx(float(direct2))


def test_state_window_is_bounded_by_receptive_field():
    lm = toy_lm(seed=6)
    state = lm.start_state()
    for tok in (1, 2, 3, 4, 5, 6, 1, 2):
        _, state = lm.score(state, tok)
    assert len(state) == lm.config.receptive_field


def test_equal_windows_score_identically():
    lm = toy_lm(seed=7)
    window = (4, 5, 6)
    a = lm.score((1, 2, 3) + window, 2)[0]
    b = lm.score((6, 6, 6, 1) + window, 2)[0]
    # only the last receptive_field tokens matter
    w = lm.config.receptive_field
    assert ((1, 2, 3) + window)[-w:] == ((6, 6, 6, 1) + window)[-w:]
    assert a == b


def test_context_limit_truncates_state():
    lm = ContextLimitedLM(GcnnLm(VOCAB, GcnnConfig(num_blocks=2, embed_dim=6, bottleneck_dim=3,
                                                   mid_kernel_width=3),
                                 rng=np.random.default_rng(8)), 1)
    state = lm.start_state()
    _, state = lm.score(state, 2)
    assert state == (2,)
    # scoring from a context-1 window ignores anything earlier
    assert lm.score((5, 4, 2), 3)[0] == lm.score((0, 2), 3)[0]


def test_row_cache_hits():
    lm = toy_lm(seed=9)
    lm.clear_cache()
    state = lm.start_state()
    lm.score(state, 1)
    size = len(lm._row_cache)
    lm.score(state, 2)
    lm.score(state, 3)
    assert len(lm._row_cache) == size  # no row was computed again
    assert lm._row_cache.hits >= 2


def test_nesterov_two_steps_hand_computed():
    opt = SgdOptimizer(TrainSettings(lr=0.1, momentum=0.9, clip=100.0), nesterov=True)
    params = {"w": np.array([1.0])}
    opt.step(params, {"w": np.array([1.0])})
    assert params["w"][0] == pytest.approx(1.0 - 0.1 * 1.9)
    opt.step(params, {"w": np.array([1.0])})
    assert params["w"][0] == pytest.approx(0.81 - 0.1 * (1.0 + 0.9 * 1.9))


def test_empty_validation_corpus_is_refused_before_any_step(monkeypatch):
    steps = []
    monkeypatch.setattr(SgdOptimizer, "step", lambda *args: steps.append(args))
    with pytest.raises(ConfigurationError, match="validation corpus is empty"):
        train_gcnn(toy_lm(seed=10), [["w0", "w1"], ["w2"]], [], epochs=1)
    assert steps == []


def test_zero_learning_rate_keeps_params():
    lm = toy_lm(seed=10)
    before = {k: v.copy() for k, v in lm.params.items()}
    train_gcnn(lm, [["w0", "w1"], ["w2"]], epochs=2, lr=0.0, seed=0)
    assert all(np.array_equal(before[k], lm.params[k]) for k in before)


def test_overfits_tiny_corpus():
    lm = GcnnLm(VOCAB, GcnnConfig(num_blocks=1, embed_dim=12, bottleneck_dim=6,
                                  mid_kernel_width=3),
                rng=np.random.default_rng(11))
    corpus = [["w0", "w1", "w2"], ["w3", "w4", "w5"]]
    history = train_gcnn(lm, corpus, epochs=80, lr=1.0, clip=1.0, seed=1)
    assert history[-1]["train_ppl"] < 2.0
    assert perplexity(lm, corpus) < 2.0


def test_validation_perplexity_improves_on_markov_corpus():
    # corpus drawn from a known bigram chain: w_{i+1} = (w_i + 1) mod 4
    rng = np.random.default_rng(12)
    sentences = []
    for _ in range(40):
        start = int(rng.integers(0, 4))
        length = int(rng.integers(2, 5))
        sentences.append([f"w{(start + j) % 4}" for j in range(length)])
    train, val = sentences[:30], sentences[30:]
    lm = GcnnLm(VOCAB, GcnnConfig(num_blocks=1, embed_dim=10, bottleneck_dim=5,
                                  mid_kernel_width=3),
                rng=np.random.default_rng(13))
    history = train_gcnn(lm, train, val, epochs=12, lr=0.8, clip=1.0, seed=2)
    assert history[-1]["val_ppl"] < history[0]["val_ppl"]


def test_batch_nll_matches_row_lookup():
    lm = toy_lm(seed=14)
    nll, targets = batch_nll(lm, [[1, 2], [4]])
    rows = lm.forward(np.array([VOCAB.begin_id, 1, 2]))
    want = -(rows[0, 1] + rows[1, 2] + rows[2, VOCAB.end_id])
    rows = lm.forward(np.array([VOCAB.begin_id, 4]))
    want -= rows[0, 4] + rows[1, VOCAB.end_id]
    assert list(targets) == [1, 2, VOCAB.end_id, 4, VOCAB.end_id]
    assert nll == pytest.approx(float(want), rel=1e-12)


def _rel(a, b):
    return float(np.max(np.abs(np.asarray(a) - b)) / max(np.max(np.abs(b)), 1e-300))


def _random_sentences(rng, lengths):
    return [list(rng.integers(0, len(WORDS), n)) for n in lengths]


def test_batch_loss_and_gradients_match_per_sentence_loop():
    lm = toy_lm(seed=15, config=TWO_BLOCKS)
    rng = np.random.default_rng(16)
    # 1 up to two tokens beyond the receptive field, inputs including <s>
    field = lm.config.receptive_field
    sentences = _random_sentences(rng, [0, field + 1, 3, 1, field - 1, 2])
    nll, targets, cache = batch_nll(lm, sentences, want_cache=True)
    d_rows = rng.normal(size=(len(targets), len(VOCAB)))
    grads = lm.backward(cache, d_rows)

    loop_nll, loop_grads, row = 0.0, {}, 0
    for sentence in sentences:
        one_nll, one_targets, one_cache = batch_nll(lm, [sentence], want_cache=True)
        loop_nll += one_nll
        rows = slice(row, row + len(one_targets))
        assert np.array_equal(one_targets, targets[rows])
        for key, g in lm.backward(one_cache, d_rows[rows]).items():
            loop_grads[key] = loop_grads.get(key, 0.0) + g
        row += len(one_targets)
    assert row == len(targets)
    assert _rel(nll, loop_nll) <= 1e-12
    assert grads.keys() == loop_grads.keys() == lm.params.keys()
    for key in grads:
        assert _rel(grads[key], loop_grads[key]) <= 1e-12, key


def test_batch_rows_are_isolated_per_sentence():
    lm = toy_lm(seed=17, config=TWO_BLOCKS)
    rng = np.random.default_rng(18)
    sentences = _random_sentences(rng, [4, 7, 1, 5])
    lengths = [len(s) + 1 for s in sentences]
    ends = np.cumsum(lengths)
    ids = np.concatenate([[VOCAB.begin_id, *s] for s in sentences])
    base = lm.forward(ids, lengths)
    for k, (start, end) in enumerate(zip(ends - lengths, ends)):
        changed = ids.copy()
        changed[start:end] = (changed[start:end] + 3) % len(WORDS)
        rows = lm.forward(changed, lengths)
        others = np.r_[0:start, end:len(ids)]
        assert np.array_equal(rows[others], base[others]), k
        assert not np.array_equal(rows[start:end], base[start:end]), k


def test_batch_gradients_match_finite_differences():
    lm = toy_lm(seed=19, config=TWO_BLOCKS)
    rng = np.random.default_rng(20)
    ids = rng.integers(0, len(VOCAB), 9)
    lengths = [3, 5, 1]
    weights = rng.normal(size=(len(ids), len(VOCAB)))

    _, cache = lm.forward(ids, lengths, want_cache=True)
    grads = lm.backward(cache, weights)
    numeric = finite_difference(
        lambda: float((lm.forward(ids, lengths) * weights).sum()), lm.params, step=1e-5
    )
    for key in lm.params:
        assert grad_close(grads[key], numeric[key], 1e-4), key


def test_validation_perplexity_matches_protocol_perplexity():
    lm = toy_lm(seed=21, config=TWO_BLOCKS)
    rng = np.random.default_rng(22)
    field = lm.config.receptive_field
    val = [[WORDS[i] for i in s] for s in _random_sentences(rng, [2, field + 3, 0, 1, 6])]
    train = [["w0", "w1"], ["w2"]]
    # lr 0 keeps the parameters, so the recorded perplexity is the model's own
    history = train_gcnn(lm, train, val, epochs=1, lr=0.0, batch_size=2, seed=0)
    assert _rel(history[0]["val_ppl"], perplexity(lm, val)) <= 1e-12


def test_forward_rejects_inconsistent_lengths():
    lm = toy_lm()
    ids = np.array([1, 2, 3, 4])
    for lengths in ([3], [2, 3], [4, 0], [0, 4], [], [[2, 2]], [-1, 5]):
        with pytest.raises(DimensionError):
            lm.forward(ids, lengths)


def test_history_records_grad_norm_and_clip_rate():
    corpus = [["w0", "w1", "w2"], ["w3"], ["w4", "w5"], ["w6", "w0"]]

    def history(clip):
        return train_gcnn(toy_lm(seed=23), corpus, epochs=2, lr=0.1, clip=clip,
                          batch_size=2, seed=3)

    tight, loose = history(1e-9), history(1e9)
    for record in tight:
        assert np.isfinite(record["grad_norm"]) and record["grad_norm"] > 1e-6
    assert [r["clip_frac"] for r in tight] == [1.0, 1.0]
    assert [r["clip_frac"] for r in loose] == [0.0, 0.0]
    assert [r["lr"] for r in tight] == [0.1, 0.05]  # 2 of 4 steps taken: half the rate left
    assert history(1e-9) == tight  # deterministic, so runs compare as wholes


def _golden_cases():
    """A batch of 4 sequences through a seeded 2-block LM with dropout, at mid
    widths 1 and 5, with a seeded dropout rng and upstream gradient."""
    for width in (1, 5):
        config = GcnnConfig(num_blocks=2, embed_dim=6, bottleneck_dim=3, mid_kernel_width=width,
                            dropout_rate=0.25)
        rng = np.random.default_rng(40 + width)
        lengths = [3, 7, 1, 5]
        ids = rng.integers(0, len(VOCAB), sum(lengths))
        yield GcnnLm(VOCAB, config, rng=np.random.default_rng(width)), ids, lengths, rng


def _golden_row(lm, ids, lengths, rng) -> dict:
    plain = lm.forward(ids, lengths)
    rows, cache = lm.forward(ids, lengths, rng=rng, want_cache=True)
    grads = lm.backward(cache, rng.normal(size=rows.shape))
    hexes = lambda a: [float(v).hex() for v in a.ravel()]  # noqa: E731
    return {"rows": hexes(plain), "dropout_rows": hexes(rows),
            **{key: hexes(grads[key]) for key in sorted(grads)}}


def test_gcnn_outputs_match_golden_file_bitwise():
    # gcnn_golden.json pins the conv LM's rows and gradients bit for bit;
    # regenerate it (run this file as a script) only for a change that is
    # meant to alter them
    want = json.loads(GOLDEN.read_text())
    got = [_golden_row(*case) for case in _golden_cases()]
    assert len(got) == len(want) == 2
    for case, (row, expected) in enumerate(zip(got, want)):
        assert row.keys() == expected.keys(), case
        for name, values in row.items():
            assert values == expected[name], (case, name)


if __name__ == "__main__":
    rows = [json.dumps(_golden_row(*case)) for case in _golden_cases()]
    GOLDEN.write_text("[\n" + ",\n".join(rows) + "\n]\n")
