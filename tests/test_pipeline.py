import base64
import json
import math
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convspeech import pipeline, synth
from convspeech.acoustic import ConvLayerSpec, EmissionTable
from convspeech.criterion import encode_target
from convspeech.decoder import DecoderOptions, build_trie
from convspeech.errors import ConfigurationError, ConvSpeechError
from convspeech.frontend import FrontendConfig, MelFrontend
from convspeech.gcnn import GcnnConfig, GcnnLm
from convspeech.lm import Vocabulary
from convspeech.synth import transcript_letters

BENCH_CHECKPOINTS = Path(__file__).resolve().parent.parent / "bench" / "checkpoints"


@pytest.fixture(scope="module")
def tiny_task(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny_task")
    spec = synth.SyntheticTaskSpec()
    manifests = synth.synthesize_dataset(spec, root, {"train": 6, "dev": 3}, seed=0)
    return spec, manifests, root


@pytest.fixture(scope="module")
def tiny_system(tiny_task):
    spec, manifests, _ = tiny_task
    system, history = pipeline.train_acoustic(
        manifests["train"], spec.lexicon, spec.alphabet,
        frontend_config=FrontendConfig(num_filters=4),
        settings=pipeline.TrainSettings(epochs=2, lr=0.3, batch_size=3, seed=0),
    )
    return system, history


def test_training_reduces_loss(tiny_system):
    _, history = tiny_system
    assert history[-1]["train_loss"] < history[0]["train_loss"]
    assert history[0]["skipped"] == 0


def test_history_records_grad_norm_and_clip_rate(tiny_task):
    spec, manifests, _ = tiny_task

    def history_with(clip, lr):
        _, history = pipeline.train_acoustic(
            manifests["train"], spec.lexicon, spec.alphabet,
            frontend_config=FrontendConfig(num_filters=4),
            settings=pipeline.TrainSettings(epochs=2, lr=lr, batch_size=3, seed=0, clip=clip),
        )
        return history

    tight, loose = history_with(1e-6, 1e-3), history_with(1e6, 1e-3)
    for record in tight + loose:
        assert math.isfinite(record["grad_norm"]) and record["grad_norm"] > 1e-6
    assert [r["clip_frac"] for r in tight] == [1.0, 1.0]
    assert [r["clip_frac"] for r in loose] == [0.0, 0.0]
    # lr 0 keeps the parameters, so every run sees the same two pre-clip
    # norms per epoch; clipping at their mean clips exactly one of them
    frozen = history_with(1e6, 0.0)
    at_mean = history_with(frozen[0]["grad_norm"], 0.0)
    assert [r["grad_norm"] for r in at_mean] == [r["grad_norm"] for r in frozen]
    assert [r["clip_frac"] for r in at_mean] == [0.5, 0.5]


def test_end_to_end_gradient_reaches_frontend(tiny_task):
    spec, manifests, _ = tiny_task
    seed_front = pipeline.LearnableFrontend(
        FrontendConfig(num_filters=4), rng=np.random.default_rng(0)
    )
    before = {k: v.copy() for k, v in seed_front.params.items()}
    system, _ = pipeline.train_acoustic(
        manifests["train"], spec.lexicon, spec.alphabet,
        frontend_config=FrontendConfig(num_filters=4),
        settings=pipeline.TrainSettings(epochs=1, lr=0.2, batch_size=6, seed=0),
    )
    for key in ("filter_real", "filter_imag", "preemphasis"):
        delta = np.linalg.norm(system.frontend.params[key] - before[key])
        assert delta > 0.0, key


def test_zero_lr_freezes_everything(tiny_task):
    spec, manifests, _ = tiny_task
    system, history = pipeline.train_acoustic(
        manifests["train"], spec.lexicon, spec.alphabet,
        frontend_config=FrontendConfig(num_filters=4),
        settings=pipeline.TrainSettings(epochs=3, lr=0.0, batch_size=3, seed=0),
    )
    losses = [rec["train_loss"] for rec in history]
    assert losses[0] == pytest.approx(losses[-1], rel=1e-12)


def test_infeasible_transcripts_are_skipped(tiny_task, tmp_path):
    spec, manifests, root = tiny_task
    entry = manifests["train"].entries[0]
    bogus_words = " ".join(["abc"] * 40)  # far longer than any utterance
    bad = synth.DatasetManifest(
        entries=[entry, synth.ManifestEntry("bad", entry.audio, bogus_words)],
    )
    system, history = pipeline.train_acoustic(
        bad, spec.lexicon, spec.alphabet,
        frontend_config=FrontendConfig(num_filters=4),
        settings=pipeline.TrainSettings(epochs=1, lr=0.1, batch_size=2, seed=0),
    )
    assert history[0]["skipped"] == 1


def test_mel_frontend_training_runs(tiny_task, tmp_path):
    spec, manifests, _ = tiny_task
    system, history = pipeline.train_acoustic(
        manifests["train"], spec.lexicon, spec.alphabet,
        frontend_kind="mel",
        frontend_config=FrontendConfig(num_filters=8),
        settings=pipeline.TrainSettings(epochs=2, lr=0.3, batch_size=3, seed=0),
    )
    assert history[-1]["train_loss"] < history[0]["train_loss"]
    assert isinstance(system.frontend, MelFrontend)
    # the checkpoint records the kind of the front-end object it was given
    pipeline.save_system(tmp_path / "mel.ckpt", system)
    assert isinstance(pipeline.load_system(tmp_path / "mel.ckpt").frontend, MelFrontend)


def test_system_checkpoint_round_trip(tiny_system, tiny_task, tmp_path):
    system, _ = tiny_system
    spec, manifests, _ = tiny_task
    path = tmp_path / "system.ckpt"
    pipeline.save_system(path, system)
    loaded = pipeline.load_system(path)
    for key in system.model.params:
        assert np.array_equal(loaded.model.params[key], system.model.params[key])
        assert loaded.model.params[key].tobytes() == system.model.params[key].tobytes()
    for key in system.frontend.params:
        assert np.array_equal(loaded.frontend.params[key], system.frontend.params[key])
    assert np.array_equal(loaded.transitions, system.transitions)
    assert loaded.alphabet == system.alphabet
    wave = pipeline.read_wav(manifests["dev"].entries[0].audio)
    assert np.array_equal(loaded.emissions(wave).scores, system.emissions(wave).scores)


def test_load_system_accepts_transitions_trainable(tiny_system, tmp_path):
    # checkpoints written before the flag was dropped carry it, some set to false
    system, _ = tiny_system
    path = tmp_path / "system.ckpt"
    pipeline.save_system(path, system)
    payload = json.loads(path.read_text())
    payload["config"]["transitions_trainable"] = False
    path.write_text(json.dumps(payload))
    assert np.array_equal(pipeline.load_system(path).transitions, system.transitions)


@pytest.mark.parametrize("section,key", [("config", "frontend"), ("config", "model"),
                                         ("arrays", "transitions")])
def test_load_system_names_missing_key(tiny_system, tmp_path, section, key):
    system, _ = tiny_system
    path = tmp_path / "system.ckpt"
    pipeline.save_system(path, system)
    payload = json.loads(path.read_text())
    del payload[section][key]
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigurationError, match=f"system.ckpt.*lacks key '{key}'"):
        pipeline.load_system(path)


@pytest.mark.parametrize("name", ["am_trained.json", "am_untrained.json"])
def test_load_system_reads_bench_checkpoints(name):
    system = pipeline.load_system(BENCH_CHECKPOINTS / name)
    assert system.transitions.shape == (len(system.alphabet), len(system.alphabet))


UNTRAINED_PAYLOAD = json.loads((BENCH_CHECKPOINTS / "am_untrained.json").read_text())
LAYER_KEYS = sorted(f.name for f in fields(ConvLayerSpec))


def _copy_payload():
    return json.loads(json.dumps(UNTRAINED_PAYLOAD))


def _shrink_array(payload, name):
    """Drop the array's first row: a readable array of the wrong shape."""
    entry = payload["arrays"][name]
    raw = base64.b64decode(entry["data"])
    entry["data"] = base64.b64encode(raw[len(raw) // entry["shape"][0]:]).decode("ascii")
    entry["shape"][0] -= 1


SYSTEM_CORRUPTIONS = [
    (lambda p: p["arrays"].pop("am.layer0_v"), "am.layer0_v"),
    (lambda p: p["arrays"].pop("am.proj_b"), "am.proj_b"),
    (lambda p: p["arrays"].pop("fe.filter_imag"), "fe.filter_imag"),
    (lambda p: _shrink_array(p, "am.layer1_g"), "am.layer1_g"),
    (lambda p: _shrink_array(p, "fe.preemphasis"), "fe.preemphasis"),
    (lambda p: _shrink_array(p, "transitions"), "transitions"),
    (lambda p: p["config"]["model"]["layers"][0].update(foo=1), "foo"),
    (lambda p: p["config"]["model"]["layers"][1].pop("kernel_width"), "kernel_width"),
    (lambda p: p["config"]["model"]["layers"][0].update(stride=2), "stride"),
    (lambda p: p["config"]["model"]["layers"].__setitem__(0, 3), "layer 0"),
    (lambda p: p["config"]["model"].update(layers=[]), "layers"),
    (lambda p: p["config"]["frontend"].pop("num_filters"), "num_filters"),
    (lambda p: p["config"]["frontend"].update(window="hann"), "window"),
    (lambda p: p["config"]["alphabet"]["letters"].remove("e"), "alphabet has 6 letters"),
    (lambda p: p["config"].update(frontend_kind="lernable"), "lernable"),
]


@pytest.mark.parametrize("corrupt, key", SYSTEM_CORRUPTIONS,
                         ids=[key for _, key in SYSTEM_CORRUPTIONS])
def test_load_system_rejects_incomplete_checkpoints(tmp_path, corrupt, key):
    payload = _copy_payload()
    corrupt(payload)
    path = tmp_path / "am.ckpt"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigurationError, match=key) as info:
        pipeline.load_system(path)
    assert str(path) in str(info.value)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_load_system_fuzz_names_the_file(data):
    payload = _copy_payload()
    layers = payload["config"]["model"]["layers"]
    action = data.draw(st.sampled_from(["drop array", "add layer key", "drop layer key"]))
    if action == "drop array":
        del payload["arrays"][data.draw(st.sampled_from(sorted(payload["arrays"])))]
    else:
        layer = layers[data.draw(st.integers(0, len(layers) - 1))]
        if action == "add layer key":
            key = data.draw(st.text(min_size=1, max_size=12).filter(lambda k: k not in layer))
            layer[key] = data.draw(st.one_of(st.none(), st.integers(), st.floats(), st.text()))
        else:
            del layer[data.draw(st.sampled_from(LAYER_KEYS))]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "am.ckpt"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConvSpeechError) as info:
            pipeline.load_system(path)
    assert str(path) in str(info.value)


def _saved_gcnn_payload(tmp_path):
    vocab = Vocabulary(("w0", "w1", "<s>", "</s>", "<unk>"))
    lm = GcnnLm(vocab, GcnnConfig(num_blocks=1, embed_dim=6, bottleneck_dim=3,
                                  mid_kernel_width=3),
                rng=np.random.default_rng(0))
    path = tmp_path / "lm.ckpt"
    pipeline.save_gcnn(path, lm)
    return lm, path, json.loads(path.read_text())


def test_gcnn_checkpoint_round_trip(tmp_path):
    lm, path, _ = _saved_gcnn_payload(tmp_path)
    loaded = pipeline.load_gcnn(path)
    assert loaded.vocab.tokens == lm.vocab.tokens
    for key in lm.params:
        assert np.array_equal(loaded.params[key], lm.params[key])
    ids = np.array([0, 1, 0])
    assert np.array_equal(loaded.forward(ids), lm.forward(ids))


def test_gcnn_checkpoint_with_null_context_limit_loads(tmp_path):
    # every checkpoint written before GcnnConfig lost context_limit stored it as null
    lm, path, payload = _saved_gcnn_payload(tmp_path)
    payload["config"]["gcnn"]["context_limit"] = None
    path.write_text(json.dumps(payload))
    loaded = pipeline.load_gcnn(path)
    assert loaded.config == lm.config
    assert loaded.score((2, 0, 1), 3) == lm.score((2, 0, 1), 3)


GCNN_CORRUPTIONS = [
    (lambda p: p["config"].pop("vocab"), "vocab"),
    (lambda p: p["config"].pop("gcnn"), "gcnn"),
    (lambda p: p["config"]["gcnn"].pop("embed_dim"), "embed_dim"),
    (lambda p: p["config"]["gcnn"].update(kernel=3), "kernel"),
    (lambda p: p["config"]["gcnn"].update(context_limit=2), "context_limit"),
    (lambda p: p["arrays"].pop("embed"), "embed"),
    (lambda p: p["arrays"].pop("block0_mid_g"), "block0_mid_g"),
    (lambda p: p["arrays"].update(out_b=p["arrays"]["block0_up_b"]), "out_b"),
]


@pytest.mark.parametrize("corrupt, key", GCNN_CORRUPTIONS,
                         ids=[key for _, key in GCNN_CORRUPTIONS])
def test_load_gcnn_rejects_incomplete_checkpoints(tmp_path, corrupt, key):
    _, path, payload = _saved_gcnn_payload(tmp_path)
    corrupt(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigurationError, match=key) as info:
        pipeline.load_gcnn(path)
    assert str(path) in str(info.value)


class StubSystem:
    """Plays back scripted emission tables in manifest order."""

    def __init__(self, tables, alphabet):
        self.tables = list(tables)
        self.transitions = np.zeros((len(alphabet), len(alphabet)))
        self._next = 0

    def emissions(self, wave):
        table = self.tables[self._next % len(self.tables)]
        self._next += 1
        return table


def _peaked_table(alphabet, letters, frames_per_letter=3):
    rows = []
    for letter in letters:
        idx = alphabet.index(letter)
        row = np.full(len(alphabet), -15.0)
        row[idx] = 15.0
        rows.extend([row] * frames_per_letter)
    return EmissionTable(np.array(rows))


def test_evaluate_perfect_emissions_zero_wer(tiny_task):
    spec, manifests, _ = tiny_task
    alphabet = spec.alphabet
    trie = build_trie(spec.lexicon, alphabet)

    class WordLm:
        vocab = Vocabulary(tuple(spec.lexicon) + ("<s>", "</s>", "<unk>"))

        def start_state(self):
            return ()

        def score(self, state, token_id):
            return -1.0, state + (token_id,)

        def finish(self, state):
            return -1.0

    tables = []
    for entry in manifests["dev"].entries:
        words = synth.normalize_transcript(entry.text)
        letters = transcript_letters(words, spec.lexicon, alphabet.silence_token)
        encoded = encode_target(alphabet, letters)
        tables.append(_peaked_table(alphabet, [alphabet.letters[i] for i in encoded]))
    stub = StubSystem(tables, alphabet)
    opts = DecoderOptions(alpha=0.1, beta=0.1, beam_size=500, beam_score=math.inf)
    report = pipeline.evaluate(manifests["dev"], stub, trie, WordLm(), opts)
    assert report.wer == 0.0
    assert report.cer == 0.0

    # all-silence emissions decode to nothing: every reference word is deleted
    silence_tables = [
        _peaked_table(alphabet, [alphabet.silence_token] * 6) for _ in manifests["dev"].entries
    ]
    stub2 = StubSystem(silence_tables, alphabet)
    report2 = pipeline.evaluate(manifests["dev"], stub2, trie, WordLm(), opts)
    assert report2.wer == 100.0
    assert report2.insertions == 0 and report2.substitutions == 0


def test_evaluate_deterministic_and_consistent(tiny_system, tiny_task):
    system, _ = tiny_system
    spec, manifests, _ = tiny_task
    trie = build_trie(spec.lexicon, spec.alphabet)
    corpus = synth.synthesize_corpus(spec, 50, seed=3)
    from io import StringIO

    from convspeech.lm import fit_bigram_arpa, load_arpa

    lm = load_arpa(StringIO(fit_bigram_arpa(corpus)))
    opts = DecoderOptions(alpha=0.5, beta=0.5, beam_size=100, beam_score=26.0)
    r1 = pipeline.evaluate(manifests["dev"], system, trie, lm, opts)
    r2 = pipeline.evaluate(manifests["dev"], system, trie, lm, opts)
    assert r1.wer == r2.wer and r1.cer == r2.cer
    assert r1.substitutions == sum(u.substitutions for u in r1.utterances)
    assert r1.deletions == sum(u.deletions for u in r1.utterances)
    assert r1.insertions == sum(u.insertions for u in r1.utterances)


def test_context_study_equal_limits(tiny_task):
    spec, manifests, _ = tiny_task
    alphabet = spec.alphabet
    trie = build_trie(spec.lexicon, alphabet)
    vocab = Vocabulary(tuple(spec.lexicon) + ("<s>", "</s>", "<unk>"))
    lm = GcnnLm(vocab, GcnnConfig(num_blocks=1, embed_dim=6, bottleneck_dim=3,
                                  mid_kernel_width=3),
                rng=np.random.default_rng(1))
    items = [

        (_peaked_table(alphabet, ["a", "b"]), np.zeros((len(alphabet), len(alphabet))), ["ab"])
    ]
    opts = DecoderOptions(alpha=0.3, beam_size=100, beam_score=26.0)
    rows = pipeline.context_wer_study(lm, [2, 2], items, trie, opts)
    assert rows[0]["wer"] == rows[1]["wer"]
    with pytest.raises(ConfigurationError):
        pipeline.context_wer_study(lm, [4, 2], items, trie, opts)


def test_perplexity_study_identical_checkpoints(tiny_task):
    spec, manifests, _ = tiny_task
    alphabet = spec.alphabet
    trie = build_trie(spec.lexicon, alphabet)
    vocab = Vocabulary(tuple(spec.lexicon) + ("<s>", "</s>", "<unk>"))
    lm = GcnnLm(vocab, GcnnConfig(num_blocks=1, embed_dim=6, bottleneck_dim=3,
                                  mid_kernel_width=3),
                rng=np.random.default_rng(2))
    items = [
        (_peaked_table(alphabet, ["a"]), np.zeros((len(alphabet), len(alphabet))), ["a"])
    ]
    corpus = [["a", "ab"], ["b"]]
    opts = DecoderOptions(alpha=0.3, beam_size=50, beam_score=26.0)
    rows = pipeline.perplexity_wer_study(
        [("e1", lm), ("e2", lm), ("e3", lm)], items, trie, opts, corpus
    )
    assert len(rows) == 3
    assert rows[0]["perplexity"] == rows[1]["perplexity"] == rows[2]["perplexity"]
    assert rows[0]["wer"] == rows[2]["wer"]
    with pytest.raises(ConfigurationError):
        pipeline.perplexity_wer_study([("e1", lm)], items, trie, opts, corpus)


def test_write_csv(tmp_path):
    path = tmp_path / "out.csv"
    pipeline.write_csv(path, [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "a,b"
    assert len(lines) == 3
