import numpy as np
import pytest

from convspeech import synth
from convspeech.errors import ConfigurationError, ConvSpeechError

from test_frontend import kernel_centers


def test_spec_defaults_are_consistent():
    spec = synth.SyntheticTaskSpec()
    assert len(spec.lexicon) >= 10
    assert all(len(s) >= 1 for s in spec.lexicon.values())
    letters = set(spec.letters)
    assert all(set(s) <= letters for s in spec.lexicon.values())
    # no doubled letters inside the default words
    for spelling in spec.lexicon.values():
        assert all(a != b for a, b in zip(spelling, spelling[1:]))


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        synth.SyntheticTaskSpec(tone_frequencies=(300.0,))
    with pytest.raises(ConfigurationError):
        synth.SyntheticTaskSpec(tone_frequencies=(300.0, 300.0, 1000.0, 1500.0, 2000.0))
    with pytest.raises(ConfigurationError):
        synth.SyntheticTaskSpec(tone_frequencies=(300.0, 825.0, 1350.0, 1875.0, 9000.0))


def test_single_letter_tone_frequency():
    # a clean one-letter utterance is a pure tone at that letter's frequency
    spec = synth.SyntheticTaskSpec()
    samples = synth.render_utterance(spec, ["a"], np.random.default_rng(0))
    assert len(samples) == int(0.120 * spec.sample_rate)
    spectrum = np.abs(np.fft.rfft(samples)) ** 2
    freqs = np.fft.rfftfreq(len(samples), 1.0 / spec.sample_rate)
    peak = freqs[int(np.argmax(spectrum))]
    assert abs(peak - spec.tone_frequencies[0]) <= freqs[1]


def test_render_deterministic():
    spec = synth.SyntheticTaskSpec(noise_level=0.05)
    a = synth.render_utterance(spec, ["ab", "c"], np.random.default_rng(42))
    b = synth.render_utterance(spec, ["ab", "c"], np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_snr_noise_level():
    spec = synth.SyntheticTaskSpec()
    level = synth.snr_noise_level(spec, 5.0)
    tone_rms = spec.amplitude / np.sqrt(2)
    assert 20 * np.log10(tone_rms / level) == pytest.approx(5.0)


def test_normalize_transcript():
    assert synth.normalize_transcript("Ab, cd! e") == ["ab", "cd", "e"]


def test_transcript_letters_inserts_silence():
    spec = synth.SyntheticTaskSpec()
    letters = synth.transcript_letters(["ab", "c"], spec.lexicon, "|")
    assert letters == ["a", "b", "|", "c"]
    with pytest.raises(ConvSpeechError):
        synth.transcript_letters(["zz"], spec.lexicon, "|")


@pytest.mark.parametrize("write", [
    lambda spec, out: synth.synthesize_dataset(spec, out, {"dev": 2}),
    lambda spec, out: synth.synthesize_from_sentences(spec, [["a"], ["b"]], out, "dev"),
], ids=["dataset", "sentences"])
def test_wav_write_failure_names_the_file(tmp_path, monkeypatch, write):
    def disk_full(path, samples, sample_rate):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(synth, "write_wav", disk_full)
    with pytest.raises(ConvSpeechError, match="dev-00000.wav: .*No space left"):
        write(synth.SyntheticTaskSpec(), tmp_path)


def test_dataset_determinism_and_manifest(tmp_path):
    spec = synth.SyntheticTaskSpec(noise_level=0.02)
    m1 = synth.synthesize_dataset(spec, tmp_path / "run1", {"dev": 4}, seed=3)
    m2 = synth.synthesize_dataset(spec, tmp_path / "run2", {"dev": 4}, seed=3)
    for e1, e2 in zip(m1["dev"].entries, m2["dev"].entries):
        assert e1.text == e2.text
        b1 = open(e1.audio, "rb").read()
        b2 = open(e2.audio, "rb").read()
        assert b1 == b2  # bit-identical audio under the same seed
    loaded = synth.load_manifest(tmp_path / "run1" / "dev.jsonl")
    assert [e.utt_id for e in loaded.entries] == [e.utt_id for e in m1["dev"].entries]
    assert len(set(e.utt_id for e in loaded.entries)) == 4


def test_unique_ids_across_larger_set(tmp_path):
    spec = synth.SyntheticTaskSpec()
    manifests = synth.synthesize_dataset(spec, tmp_path, {"train": 20}, seed=1)
    ids = [e.utt_id for e in manifests["train"].entries]
    assert len(set(ids)) == 20


@pytest.fixture
def audio_dir(tmp_path, monkeypatch):
    """tmp_path as the working directory, holding the audio files "x" and "y"."""
    monkeypatch.chdir(tmp_path)
    for name in ("x", "y"):
        (tmp_path / name).touch()
    return tmp_path


def test_manifest_rejects_duplicates(audio_dir):
    path = audio_dir / "m.jsonl"
    path.write_text('{"id": "u1", "audio": "x", "text": "a"}\n'
                    '{"id": "u1", "audio": "y", "text": "b"}\n')
    with pytest.raises(ConvSpeechError, match="duplicate"):
        synth.load_manifest(path)


@pytest.mark.parametrize("line, problem", [
    ("3", "JSON object"),
    ('{"id": [1], "audio": "x", "text": "a"}', "'id' is missing or not a string"),
    ('{"id": "u1", "audio": "x", "text": null}', "'text' is missing or not a string"),
])
def test_manifest_rejects_wrong_types(audio_dir, line, problem):
    path = audio_dir / "m.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(ConvSpeechError, match=f"m.jsonl:1: .*{problem}"):
        synth.load_manifest(path)


def test_manifest_rejects_missing_field(audio_dir):
    path = audio_dir / "m.jsonl"
    path.write_text('{"id": "u1", "audio": "x"}\n')
    with pytest.raises(ConvSpeechError, match="text"):
        synth.load_manifest(path)


def test_markov_bias_rows_are_distributions():
    spec = synth.SyntheticTaskSpec()
    bias = synth.markov_bias(spec, seed=5)
    assert bias.shape == (len(spec.lexicon), len(spec.lexicon))
    assert np.allclose(bias.sum(axis=1), 1.0)


def test_front_end_sees_letter_tone(tmp_path):
    # zero noise, one letter: the analysis of a matched learnable filter bank
    # peaks at that letter's frequency
    spec = synth.SyntheticTaskSpec()
    samples = synth.render_utterance(spec, ["c"], np.random.default_rng(0))
    # build a filterbank whose third filter is tuned to letter "c"
    width = 400
    t = np.arange(width) / spec.sample_rate
    rng = np.random.default_rng(1)
    real = rng.normal(0, 0.01, (3, width))
    imag = rng.normal(0, 0.01, (3, width))
    target_freq = spec.tone_frequencies[2]
    real[2] = np.cos(2 * np.pi * target_freq * t)
    imag[2] = np.sin(2 * np.pi * target_freq * t)
    assert abs(kernel_centers(real[2], imag[2], spec.sample_rate)[0] - target_freq) <= 10.0
