"""Acceptance suite.

One test per acceptance criterion; each prints a [PASS]/[FAIL] line with its
headline numbers (run pytest with -s to see them live). The synthetic
end-to-end criteria (5-7) share session-scoped training fixtures.
"""

import io
import itertools
import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from convspeech import synth
from convspeech.acoustic import AcousticModel, AcousticModelConfig, ConvLayerSpec
from convspeech.audio_io import read_wav, write_wav
from convspeech.checkpoint import load_checkpoint, save_checkpoint
from convspeech.criterion import (
    Alphabet,
    asg_loss,
    asg_loss_and_gradients,
    encode_target,
    forward_score,
)
from convspeech.decoder import DecoderOptions, build_trie, decode, items_wer, tune_grid
from convspeech.errors import AudioFormatError
from convspeech.frontend import (
    FrontendConfig,
    LearnableFrontend,
    Waveform,
    instance_normalize,
)
from convspeech.gcnn import GcnnConfig, GcnnLm, train_gcnn
from convspeech.lm import Vocabulary, fit_bigram_arpa, load_arpa, perplexity
from convspeech.metrics import aggregate, edit_distance_alignment, score_utterance
from convspeech.pipeline import TrainSettings, eval_items, evaluate, train_acoustic
from convspeech.optim import SgdOptimizer

from oracles import (
    brute_force_edit_counts,
    brute_force_graph_score,
    exhaustive_decode,
    finite_difference,
    grad_close,
)
from test_decoder import HistoryLm
from test_frontend import kernel_centers

RATE = 16000


def report(ok: bool, label: str, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {label}{suffix}")
    assert ok, f"{label}{suffix}"


# -- criterion 1: ASG forward-score oracle -------------------------------------

def test_criterion_1_asg_oracle_suite():
    start = time.time()
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(200):
        t = int(rng.integers(1, 6))
        a = int(rng.integers(2, 5))
        emissions = rng.normal(size=(t, a))
        transitions = rng.normal(size=(a, a)) * 0.5
        letters = target = None
        if rng.random() >= 0.5:
            length = int(rng.integers(1, t + 1))
            letters = [int(rng.integers(0, a))]
            while len(letters) < length:
                nxt = int(rng.integers(0, a))
                if nxt != letters[-1]:
                    letters.append(nxt)
            target = np.array(letters)
        got = forward_score(emissions, transitions, target)
        want = brute_force_graph_score(emissions, transitions, letters)
        worst = max(worst, abs(got - want) / max(abs(want), 1e-12))
    elapsed = time.time() - start
    report(worst <= 1e-10 and elapsed < 10.0,
           "criterion 1: ASG oracle suite (200 instances)",
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


# -- criterion 2: gradient suite ------------------------------------------------

def test_criterion_2_gradient_suite():
    start = time.time()
    rng = np.random.default_rng(12)
    failures = []

    # ASG gradients on random instances
    for trial in range(25):
        t = int(rng.integers(2, 6))
        a = int(rng.integers(2, 5))
        emissions = rng.normal(size=(t, a))
        transitions = rng.normal(size=(a, a)) * 0.5
        target = np.array([0, 1][: min(t, 2)])
        _, d_em, d_g = asg_loss_and_gradients(emissions, transitions, target)
        arrays = {"em": emissions, "tr": transitions}
        numeric = finite_difference(
            lambda: asg_loss(arrays["em"], arrays["tr"], target), arrays, step=1e-5
        )
        if not (grad_close(d_em, numeric["em"], 1e-4) and grad_close(d_g, numeric["tr"], 1e-4)):
            failures.append(f"asg trial {trial}")

    # acoustic model, all tensors plus the input path
    config = AcousticModelConfig(
        [ConvLayerSpec(3, 5, 3), ConvLayerSpec(5, 4, 3)], alphabet_size=4
    )
    model = AcousticModel(config, rng=np.random.default_rng(13))
    x = rng.normal(size=(3, 7))
    weights = rng.normal(size=(7, 4))
    _, cache = model.forward(x, want_cache=True)
    grads, d_input = model.backward(cache, weights)
    numeric = finite_difference(
        lambda: float((model.forward(x).scores * weights).sum()), model.params, 1e-5
    )
    for key in model.params:
        if not grad_close(grads[key], numeric[key], 1e-4):
            failures.append(f"acoustic {key}")
    num_in = finite_difference(
        lambda: float((model.forward(x).scores * weights).sum()), {"x": x}, 1e-5
    )
    if not grad_close(d_input, num_in["x"], 1e-4):
        failures.append("acoustic input")

    # learnable front-end on a 100 ms probe
    front = LearnableFrontend(
        FrontendConfig(num_filters=2, filter_width_ms=1.25, lowpass_width_ms=1.25,
                       stride_ms=0.5),
        RATE, rng=np.random.default_rng(14),
    )
    wave = Waveform(rng.normal(size=1600), RATE)
    feat, fe_cache = front.forward(wave, want_cache=True)
    fe_weights = rng.normal(size=feat.shape)
    fe_grads = front.backward(fe_cache, fe_weights)
    fe_numeric = finite_difference(
        lambda: float((front.forward(wave) * fe_weights).sum()), front.params, 1e-5
    )
    for key in front.params:
        if not grad_close(fe_grads[key], fe_numeric[key], 1e-4):
            failures.append(f"frontend {key}")

    # conv LM
    vocab = Vocabulary(tuple(f"w{i}" for i in range(5)) + ("<s>", "</s>", "<unk>"))
    lm = GcnnLm(vocab, GcnnConfig(num_blocks=1, embed_dim=6, bottleneck_dim=3,
                                  mid_kernel_width=3),
                rng=np.random.default_rng(15))
    ids = np.array([1, 3, 2, 0])
    lm_weights = rng.normal(size=(4, len(vocab)))
    _, lm_cache = lm.forward(ids, want_cache=True)
    lm_grads = lm.backward(lm_cache, lm_weights)
    lm_numeric = finite_difference(
        lambda: float((lm.forward(ids) * lm_weights).sum()), lm.params, 1e-5
    )
    for key in lm.params:
        if not grad_close(lm_grads[key], lm_numeric[key], 1e-4):
            failures.append(f"gcnn {key}")

    elapsed = time.time() - start
    report(not failures and elapsed < 120.0,
           "criterion 2: gradient suite (ASG, acoustic, front-end, conv LM)",
           f"failures={failures or 'none'}, {elapsed:.1f}s")


# -- criterion 3: decoder oracle suite ------------------------------------------

AB = Alphabet.from_plain_letters(("a", "b", "c"))


def _random_decoder_instance(rng):
    pool = ["a", "b", "c", "ab", "ba", "cb", "aa", "bc"]
    picks = rng.choice(len(pool), size=int(rng.integers(2, 5)), replace=False)
    lexicon = {pool[i]: list(pool[i]) for i in picks}
    lm = HistoryLm(list(lexicon))
    t = int(rng.integers(2, 7))
    emissions = rng.normal(size=(t, len(AB)))
    transitions = rng.normal(size=(len(AB), len(AB))) * 0.3
    opts = DecoderOptions(
        alpha=float(rng.uniform(0, 1.5)), beta=float(rng.uniform(0, 1.0)),
        gamma=float(rng.uniform(0, 1.0)), beam_size=200000, beam_score=math.inf,
    )
    return emissions, transitions, lexicon, lm, opts


def test_criterion_3_decoder_oracle_suite():
    start = time.time()
    rng = np.random.default_rng(16)
    worst = 0.0
    mismatches = []
    for trial in range(100):
        emissions, g, lexicon, lm, opts = _random_decoder_instance(rng)
        trie = build_trie(lexicon, AB)
        got = decode(emissions, g, trie, lm, opts)
        want = exhaustive_decode(emissions, g, lexicon, AB, lm, opts)
        rel = abs(got.objective - want.objective) / max(abs(want.objective), 1e-12)
        worst = max(worst, rel)
        if got.words != want.words:
            mismatches.append(trial)
        # merging (max mode) on/off and pruning generous/off leave the top-1 alone
        if trial % 10 == 0:
            base = dict(alpha=opts.alpha, beta=opts.beta, gamma=opts.gamma,
                        beam_size=opts.beam_size)
            on = decode(emissions, g, trie, lm,
                        DecoderOptions(beam_score=math.inf, merge_mode="max", **base))
            off = decode(emissions, g, trie, lm,
                         DecoderOptions(beam_score=math.inf, merge_mode="off", **base))
            pruned = decode(emissions, g, trie, lm,
                            DecoderOptions(beam_score=50.0, merge_mode="max", **base))
            if not (on.words == off.words == pruned.words
                    and abs(on.objective - off.objective) <= 1e-8 * max(1, abs(on.objective))
                    and abs(on.objective - pruned.objective) <= 1e-8 * max(1, abs(on.objective))):
                mismatches.append(f"merge/prune {trial}")
    elapsed = time.time() - start
    report(worst <= 1e-8 and not mismatches and elapsed < 120.0,
           "criterion 3: decoder oracle suite (100 instances)",
           f"max rel err {worst:.2e}, mismatches={mismatches or 'none'}, {elapsed:.1f}s")


# -- criterion 4: front-end DSP suite --------------------------------------------

def test_criterion_4_frontend_dsp_suite():
    start = time.time()
    ok = True
    details = []

    # center frequency of synthetic exponentials within one DFT bin
    width = 400
    t = np.arange(width) / RATE
    bin_width = RATE / (4 * width)
    for freq in (250.0, 1000.0, 2713.0, 6100.0):
        got = kernel_centers(np.cos(2 * np.pi * freq * t), np.sin(2 * np.pi * freq * t))[0]
        if abs(got - freq) > bin_width:
            ok = False
            details.append(f"cf {freq}")

    # instance-norm statistics
    rng = np.random.default_rng(17)
    v = rng.normal(3.0, 2.5, size=(6, 1000))
    out = instance_normalize(v, 1e-5)
    if np.max(np.abs(out.mean(axis=1))) > 1e-6 or np.max(np.abs(out.var(axis=1) - 1)) > 1e-4:
        ok = False
        details.append("instance norm stats")

    # low-pass window untouched by 100 training steps
    toy = FrontendConfig(num_filters=2, filter_width_ms=1.25, lowpass_width_ms=1.25,
                         stride_ms=0.5)
    front = LearnableFrontend(toy, RATE, rng=np.random.default_rng(18))
    window_before = front.lowpass_window.copy()
    opt = SgdOptimizer(lr=0.05, momentum=0.9, clip=1.0)
    wave = Waveform(rng.normal(size=400), RATE)
    for _ in range(100):
        feat, cache = front.forward(wave, want_cache=True)
        grads = front.backward(cache, np.ones_like(feat))
        opt.step(front.params, grads)
    if not np.array_equal(front.lowpass_window, window_before):
        ok = False
        details.append("low-pass window changed")

    elapsed = time.time() - start
    report(ok and elapsed < 30.0,
           "criterion 4: front-end DSP suite",
           f"issues={details or 'none'}, {elapsed:.1f}s")


# -- shared synthetic-task fixtures (criteria 5-7) --------------------------------

@pytest.fixture(scope="session")
def clean_task(tmp_path_factory):
    root = tmp_path_factory.mktemp("clean_task")
    spec = synth.SyntheticTaskSpec()
    bias = synth.markov_bias(spec)
    manifests = synth.synthesize_dataset(
        spec, root, {"train": 500, "dev": 50, "test": 50}, seed=0, transition_bias=bias
    )
    corpus = synth.synthesize_corpus(spec, 2000, seed=1, transition_bias=bias)
    lm = load_arpa(io.StringIO(fit_bigram_arpa(corpus)))
    trie = build_trie(spec.lexicon, spec.alphabet)
    return {"spec": spec, "bias": bias, "manifests": manifests, "corpus": corpus,
            "lm": lm, "trie": trie}


@pytest.fixture(scope="session")
def clean_system(clean_task):
    t0 = time.time()
    cpu0 = time.process_time()
    system, history = train_acoustic(
        clean_task["manifests"]["train"], clean_task["spec"].lexicon,
        clean_task["spec"].alphabet, frontend_kind="learnable",
        frontend_config=FrontendConfig(num_filters=8),
        settings=TrainSettings(epochs=8, lr=0.3, batch_size=4, seed=0),
    )
    return {"system": system, "history": history,
            "wall_seconds": time.time() - t0,
            "cpu_seconds": time.process_time() - cpu0}


@pytest.fixture(scope="session")
def noisy_task(tmp_path_factory, clean_task):
    root = tmp_path_factory.mktemp("noisy_task")
    spec = synth.noisy_variant(clean_task["spec"], snr_db=5.0)
    manifests = synth.synthesize_dataset(
        spec, root, {"train": 150, "dev": 30, "test": 40}, seed=100,
        transition_bias=clean_task["bias"],
    )
    return {"spec": spec, "manifests": manifests}


@pytest.fixture(scope="session")
def noise_runs(noisy_task, clean_task):
    opts = DecoderOptions(alpha=1.0, beta=1.0, beam_size=2500, beam_score=26.0)
    runs = {}
    for kind in ("learnable", "mel"):
        for seed in (0, 1, 2):
            system, _ = train_acoustic(
                noisy_task["manifests"]["train"], noisy_task["spec"].lexicon,
                noisy_task["spec"].alphabet, frontend_kind=kind,
                frontend_config=FrontendConfig(num_filters=8),
                settings=TrainSettings(epochs=8, lr=0.3, batch_size=4, seed=seed),
            )
            test_items = eval_items(noisy_task["manifests"]["test"], system)
            runs[(kind, seed)] = {
                "system": system,
                "wer": items_wer(test_items, clean_task["trie"], clean_task["lm"], opts),
            }
    return runs


# -- criterion 5: synthetic end to end ---------------------------------------------

def test_criterion_5_synthetic_end_to_end(clean_task, clean_system):
    system = clean_system["system"]
    manifests = clean_task["manifests"]
    dev_items = eval_items(manifests["dev"], system)
    best, grid = tune_grid(
        dev_items, alphas=[0.5, 1.0], betas=[0.5, 1.0], gammas=[0.0],
        trie=clean_task["trie"], lm=clean_task["lm"],
    )
    test_items = eval_items(manifests["test"], system)
    test_wer = items_wer(test_items, clean_task["trie"], clean_task["lm"], best)
    minutes = clean_system["cpu_seconds"] / 60.0
    ok = test_wer <= 5.0 and minutes < 30.0
    report(ok, "criterion 5: synthetic end-to-end (500/50/50 clean)",
           f"test WER {test_wer:.2f}% with alpha={best.alpha} beta={best.beta} "
           f"gamma={best.gamma} at beam {best.beam_size}/{best.beam_score}; "
           f"training {minutes:.1f} CPU-min (wall {clean_system['wall_seconds']:.0f}s)")


# -- criterion 6: noise contrast ----------------------------------------------------

def test_criterion_6_noise_contrast(noise_runs):
    diffs = [
        noise_runs[("learnable", seed)]["wer"] - noise_runs[("mel", seed)]["wer"]
        for seed in (0, 1, 2)
    ]
    median_diff = sorted(diffs)[1]
    pairs = ", ".join(
        f"seed{seed}: {noise_runs[('learnable', seed)]['wer']:.1f} vs "
        f"{noise_runs[('mel', seed)]['wer']:.1f}"
        for seed in (0, 1, 2)
    )
    report(median_diff <= 0.0,
           "criterion 6: noise contrast (learnable <= mel at SNR 5 dB, median of 3 seeds)",
           f"median diff {median_diff:+.2f} [{pairs}]")


# -- criterion 7: LM studies ---------------------------------------------------------
#
# Homophone pairs make LM quality directly observable in WER; see
# synth.HOMOPHONE_STUDY_LEXICON.

def test_criterion_7_lm_studies(tmp_path_factory):
    root = tmp_path_factory.mktemp("lm_studies")
    spec = synth.homophone_study_spec()
    train_m = synth.synthesize_from_sentences(
        spec, synth.homophone_study_sentences(120, 10), root, "train"
    )
    dev_m = synth.synthesize_from_sentences(
        spec, synth.homophone_study_sentences(40, 11), root, "dev"
    )
    # LM studies evaluate with the fixed-front-end baseline system
    system, _ = train_acoustic(
        train_m, spec.lexicon, spec.alphabet,
        frontend_kind="mel", frontend_config=FrontendConfig(num_filters=8),
        settings=TrainSettings(epochs=6, lr=0.3, batch_size=4, seed=0),
    )
    items = eval_items(dev_m, system)
    trie = build_trie(spec.lexicon, spec.alphabet)

    corpus = synth.homophone_study_sentences(600, 20)
    val_corpus = synth.homophone_study_sentences(150, 21)
    tokens = sorted({tok for sentence in corpus for tok in sentence})
    vocab = Vocabulary(tuple(tokens) + ("<s>", "</s>", "<unk>"))
    lm = GcnnLm(vocab, GcnnConfig(num_blocks=2, embed_dim=16, bottleneck_dim=8,
                                  mid_kernel_width=5),
                rng=np.random.default_rng(0))
    checkpoints = [("epoch-start", GcnnLm(vocab, lm.config,
                    params={k: v.copy() for k, v in lm.params.items()}))]

    def snapshot(epoch, model, record):
        checkpoints.append((
            f"epoch{epoch}",
            GcnnLm(vocab, model.config,
                   params={k: v.copy() for k, v in model.params.items()}),
        ))

    train_gcnn(lm, corpus, val_corpus, epochs=5, lr=0.5, clip=0.5, batch_size=8,
               seed=0, epoch_callback=snapshot)

    opts = DecoderOptions(alpha=1.5, beta=1.0, beam_size=2500, beam_score=26.0)
    from convspeech.pipeline import context_wer_study, perplexity_wer_study

    rows = perplexity_wer_study(checkpoints, items, trie, opts, val_corpus)
    ppls = [row["perplexity"] for row in rows]
    wers = [row["wer"] for row in rows]
    rho = spearmanr(ppls, wers).statistic
    ctx_rows = context_wer_study(lm, [1, 2, 4, 8], items, trie, opts)
    ctx = {row["context"]: row["wer"] for row in ctx_rows}
    ok = (len(rows) >= 5 and np.isfinite(rho) and rho >= 0.0
          and ctx[8] <= ctx[1])
    report(ok, "criterion 7: LM studies (context plateau + perplexity-WER trend)",
           f"spearman {rho:.3f} over {len(rows)} checkpoints "
           f"(ppl {ppls[0]:.2f}->{ppls[-1]:.2f}, wer {wers[0]:.2f}->{wers[-1]:.2f}); "
           f"context WER 1:{ctx[1]:.2f}% 2:{ctx[2]:.2f}% 4:{ctx[4]:.2f}% 8:{ctx[8]:.2f}%")


# -- criterion 8: metric suite ----------------------------------------------------

def test_criterion_8_metric_suite():
    start = time.time()
    vocab = ("x", "y", "z")
    checked = 0
    ok = True
    for ref_len in range(0, 4):
        for hyp_len in range(0, 4):
            for ref in itertools.product(vocab, repeat=ref_len):
                for hyp in itertools.product(vocab, repeat=hyp_len):
                    got = edit_distance_alignment(list(ref), list(hyp))
                    want = brute_force_edit_counts(list(ref), list(hyp))
                    checked += 1
                    if sum(got) != sum(want):
                        ok = False
    # longer sequences, sampled
    rng = np.random.default_rng(19)
    for _ in range(300):
        ref = [vocab[i] for i in rng.integers(0, 3, size=rng.integers(0, 7))]
        hyp = [vocab[i] for i in rng.integers(0, 3, size=rng.integers(0, 7))]
        if sum(edit_distance_alignment(ref, hyp)) != sum(brute_force_edit_counts(ref, hyp)):
            ok = False
        checked += 1

    def wer(reference, hypothesis):
        return aggregate([score_utterance("u", reference, hypothesis)]).wer

    hand_ok = (
        wer("the cat sat".split(), "the cat".split()) == pytest.approx(100.0 / 3)
        and wer(["a", "b"], ["a", "b"]) == 0.0
        and wer(["a", "b"], []) == 100.0
        and edit_distance_alignment(["a"], ["b"]) == (1, 0, 0)
    )
    elapsed = time.time() - start
    report(ok and hand_ok,
           "criterion 8: metric suite",
           f"{checked} alignments vs enumeration, {elapsed:.1f}s")


# -- criterion 9: format round-trips ----------------------------------------------

def test_criterion_9_format_round_trips(tmp_path):
    start = time.time()
    ok = True
    details = []

    # checkpoint bit-exactness
    rng = np.random.default_rng(20)
    arrays = {"a": rng.normal(size=(4, 5)), "b": np.array([np.pi, 1e-300, -0.0])}
    save_checkpoint(tmp_path / "c.ckpt", "acoustic-system", {"v": 1}, arrays)
    _, _, loaded = load_checkpoint(tmp_path / "c.ckpt")
    if not all(loaded[k].tobytes() == arrays[k].tobytes() for k in arrays):
        ok = False
        details.append("checkpoint bytes differ")

    # hand-built ARPA back-off values to 1e-6
    from test_lm import HAND_BIGRAM

    model = load_arpa(io.StringIO(HAND_BIGRAM))
    v = model.vocab
    cases = [
        (model.score((v.id("a"),), v.id("b"))[0], math.log(0.6)),
        (model.score((v.id("a"),), v.id("a"))[0], math.log(0.4 / 0.7) + math.log(0.4)),
        (model.score((v.id("b"),), v.end_id)[0], math.log(0.2)),
        (model.score((v.begin_id,), v.id("a"))[0], math.log(0.9)),
    ]
    if not all(abs(got - want) <= 1e-6 for got, want in cases):
        ok = False
        details.append("arpa back-off mismatch")

    # WAV rejects malformed headers with diagnostics
    wav_path = tmp_path / "good.wav"
    write_wav(wav_path, np.zeros(100))
    read_wav(wav_path)  # sanity: the good file parses
    bad_cases = [
        (b"JUNK" + bytes(20), "RIFF"),
        (b"RIFF\x10\x00\x00\x00WAVX" + bytes(20), "WAVE"),
        (b"RIFF", "too short"),
    ]
    for payload, needle in bad_cases:
        bad = tmp_path / "bad.wav"
        bad.write_bytes(payload)
        try:
            read_wav(bad)
            ok = False
            details.append(f"accepted malformed ({needle})")
        except AudioFormatError as err:
            if needle not in str(err):
                ok = False
                details.append(f"unhelpful diagnostic for {needle}: {err}")

    elapsed = time.time() - start
    report(ok, "criterion 9: format round-trips", f"issues={details or 'none'}, {elapsed:.1f}s")
