import gc
import json
import re
import struct
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convspeech import pipeline, synth
from convspeech.audio_io import read_wav, write_wav
from convspeech.checkpoint import (
    alphabet_to_json,
    load_checkpoint,
    load_emissions,
    read_lexicon,
    save_checkpoint,
    write_lexicon,
)
from convspeech.cli import _load_lm, _load_task, _read_trie, _save_task, parse_config_file
from convspeech.criterion import Alphabet
from convspeech.errors import (
    ArpaParseError,
    AudioFormatError,
    ConfigurationError,
    ConvSpeechError,
    DomainError,
    VocabularyError,
)
from convspeech.gcnn import GcnnConfig, GcnnLm
from convspeech.lm import Vocabulary, fit_bigram_arpa

AB = Alphabet(("a", "b", "|", "2"))


def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    samples = np.clip(rng.normal(0, 0.2, 1600), -1, 1)
    path = tmp_path / "x.wav"
    write_wav(path, samples, 16000)
    wave = read_wav(path)
    assert wave.sample_rate == 16000
    assert wave.samples.shape == (1600,)
    # PCM16 quantization error bound (write scales by 32767, read by 32768)
    assert np.max(np.abs(wave.samples - samples)) <= 1.5 / 32768 + 1e-9


def test_wav_write_to_a_directory_raises_cleanly(tmp_path):
    unraisable = []
    hook, sys.unraisablehook = sys.unraisablehook, unraisable.append
    try:
        with pytest.raises(IsADirectoryError):
            write_wav(tmp_path, np.zeros(4))
        gc.collect()  # a half-built writer's __del__ would run here
    finally:
        sys.unraisablehook = hook
    assert unraisable == []


def test_wav_rejects_missing_riff(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"JUNKxxxxWAVE" + b"\x00" * 50)
    with pytest.raises(AudioFormatError, match="RIFF"):
        read_wav(path)


def test_wav_rejects_wrong_form(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"RIFF\x28\x00\x00\x00AVI " + b"\x00" * 50)
    with pytest.raises(AudioFormatError, match="WAVE"):
        read_wav(path)


def test_wav_rejects_truncated(tmp_path):
    path = tmp_path / "tiny.wav"
    path.write_bytes(b"RIFF")
    with pytest.raises(AudioFormatError, match="too short"):
        read_wav(path)


def _wav_bytes(audio_format=1, channels=1, bits=16, rate=16000, payload=b"\x00\x00"):
    fmt = struct.pack("<HHIIHH", audio_format, channels, rate,
                      rate * channels * bits // 8, channels * bits // 8, bits)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def test_wav_rejects_float_encoding(tmp_path):
    path = tmp_path / "f32.wav"
    path.write_bytes(_wav_bytes(audio_format=3))
    with pytest.raises(AudioFormatError, match="not integer PCM"):
        read_wav(path)


def test_wav_rejects_stereo(tmp_path):
    path = tmp_path / "st.wav"
    path.write_bytes(_wav_bytes(channels=2))
    with pytest.raises(AudioFormatError, match="mono"):
        read_wav(path)


def test_wav_rejects_8bit(tmp_path):
    path = tmp_path / "b8.wav"
    path.write_bytes(_wav_bytes(bits=8))
    with pytest.raises(AudioFormatError, match="16-bit"):
        read_wav(path)


def test_wav_rejects_zero_sample_rate(tmp_path):
    path = tmp_path / "r0.wav"
    path.write_bytes(_wav_bytes(rate=0))
    with pytest.raises(AudioFormatError, match="r0.wav: sample rate is 0"):
        read_wav(path)


def test_wav_missing_data_chunk(tmp_path):
    fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    path = tmp_path / "nodata.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
    with pytest.raises(AudioFormatError, match="data"):
        read_wav(path)


def test_wav_rejects_short_data_chunk(tmp_path):
    path = tmp_path / "cut.wav"
    write_wav(path, np.zeros(1000))
    path.write_bytes(path.read_bytes()[:-500])
    with pytest.raises(AudioFormatError, match=r"cut\.wav.*declares 2000 bytes but only 1500"):
        read_wav(path)


def test_checkpoint_bit_exact_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    arrays = {
        "weights": rng.normal(size=(3, 4, 5)),
        "bias": rng.normal(size=7),
        "exotic": np.array([np.pi, np.nextafter(1.0, 2.0), 1e-308]),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, "acoustic-system", {"layers": 2, "note": "x"}, arrays)
    config, loaded = load_checkpoint(path, "acoustic-system")
    assert config == {"layers": 2, "note": "x"}
    for name, arr in arrays.items():
        assert loaded[name].dtype == arr.dtype
        assert np.array_equal(loaded[name], arr)
        assert loaded[name].tobytes() == arr.tobytes()


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"format": "other"}')
    with pytest.raises(ConfigurationError):
        load_checkpoint(path, "acoustic-system")


def _malformed_json(path):
    save_checkpoint(path, "acoustic-system", {}, {"w": np.zeros(2)})
    path.write_text(path.read_text()[:-10])


def _missing_arrays(path):
    path.write_text('{"format": "convspeech-checkpoint", "version": 1, "kind": "x", "config": {}}')


def save_table(path, scores, transitions, alphabet=AB):
    """An emission table as a system that decodes with `transitions` writes it."""
    save_checkpoint(path, "emissions", {"alphabet": alphabet_to_json(alphabet)},
                    {"scores": scores, "transitions": transitions})


def _truncated_emissions(path):
    save_table(path, np.zeros((5, 4)), np.zeros((4, 4)))
    path.write_bytes(path.read_bytes()[:-9])


def _truncated_emission_scores(path):
    save_table(path, np.zeros((5, 4)), np.zeros((4, 4)))
    raw = path.read_bytes()
    path.write_bytes(raw[: raw.index(b'"data"', raw.index(b'"scores"')) + 20])


@pytest.mark.parametrize("corrupt, load", [
    (_malformed_json, partial(load_checkpoint, kind="acoustic-system")),
    (_missing_arrays, partial(load_checkpoint, kind="x")),
    (_truncated_emissions, load_emissions),
    (_truncated_emission_scores, load_emissions),
], ids=lambda value: getattr(value, "func", value).__name__)
def test_corrupt_containers_raise_configuration_error(tmp_path, corrupt, load):
    path = tmp_path / "corrupt.bin"
    corrupt(path)
    with pytest.raises(ConfigurationError, match="corrupt.bin"):
        load(path)


def test_emission_table_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    scores = rng.normal(size=(11, 4))
    transitions = rng.normal(size=(4, 4))
    path = tmp_path / "e.ckpt"
    save_table(path, scores, transitions)
    loaded, alphabet, g = load_emissions(path)
    assert loaded.scores.tobytes() == scores.tobytes()
    assert g.tobytes() == transitions.tobytes()
    assert alphabet == AB


def test_emission_table_rejects_duplicate_letters(tmp_path):
    path = tmp_path / "e.ckpt"
    save_table(path, np.zeros((3, 4)), np.zeros((4, 4)))
    payload = json.loads(path.read_text())
    payload["config"]["alphabet"]["letters"][1] = "a"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigurationError, match=r"e\.ckpt: .*alphabet letters must be unique"):
        load_emissions(path)


def test_emission_table_rejects_mismatched_transitions(tmp_path):
    path = tmp_path / "e.ckpt"
    save_table(path, np.zeros((3, 4)), np.zeros((3, 3)))
    with pytest.raises(ConfigurationError,
                       match=r"e\.ckpt: .*'transitions' has shape \(3, 3\), not \(4, 4\)"):
        load_emissions(path)


EMISSION_DAMAGE = {
    "kind": (lambda p: p.update(kind="acoustic-system"), "'acoustic-system' checkpoint"),
    "scores 1-D": (lambda p: p["arrays"].update(scores=p["arrays"]["transitions"]
                                                | {"shape": [16]}), "'scores' has shape"),
    "scores columns": (lambda p: p["arrays"].update(scores=p["arrays"]["transitions"]
                                                    | {"shape": [8, 2]}), "'scores' has shape"),
    "transitions shape": (lambda p: p["arrays"]["transitions"].update(shape=[2, 8]),
                          "'transitions' has shape"),
    "extra array": (lambda p: p["arrays"].update(lengths=p["arrays"]["transitions"]),
                    "unexpected arrays"),
    "missing array": (lambda p: p["arrays"].pop("transitions"), "lacks key 'transitions'"),
    "integer scores": (lambda p: p["arrays"]["scores"].update(dtype="<i8"), "float64"),
    "alphabet": (lambda p: p["config"]["alphabet"].pop("silence"), "alphabet must be"),
    "config": (lambda p: p["config"].update(normalized=True), "config must hold"),
}


@pytest.mark.parametrize("case", EMISSION_DAMAGE)
def test_emission_table_rejects_what_the_decode_cannot_use(tmp_path, case):
    damage, message = EMISSION_DAMAGE[case]
    path = tmp_path / "e.ckpt"
    save_table(path, np.zeros((3, 4)), np.zeros((4, 4)))
    payload = json.loads(path.read_text())
    damage(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigurationError, match=re.escape(f"{path}: ") + ".*" + message):
        load_emissions(path)


def test_emission_table_bad_magic(tmp_path):
    # a table in the binary format that emission tables used to have
    path = tmp_path / "e.bin"
    path.write_bytes(b"CSEM\x02\x00\x00\x00" + b"\x00" * 30)
    with pytest.raises(ConfigurationError, match=re.escape(f"{path}: not valid JSON")):
        load_emissions(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("kind", ["acoustic-system", "gcnn-lm", "emissions"])
def test_checkpoint_arrays_holding_nan_or_pos_inf_are_refused(tmp_path, kind, value):
    path = tmp_path / "x.ckpt"
    bad = np.zeros((2, 3))
    bad[1, 2] = value
    save_checkpoint(path, kind, {}, {"w": np.ones(2), "x": bad, "n": np.arange(3)})
    with pytest.raises(DomainError, match=re.escape(f"{path}: array 'x' holds NaN or +inf")):
        load_checkpoint(path, kind)


def test_checkpoint_arrays_keep_neg_inf(tmp_path):
    # -inf forbids a letter or a transition
    scores, g = np.zeros((3, 4)), np.zeros((4, 4))
    scores[:, 1] = g[2, 0] = -np.inf
    path = tmp_path / "e.ckpt"
    save_table(path, scores, g)
    table, _, transitions = load_emissions(path)
    assert np.array_equal(table.scores, scores) and np.array_equal(transitions, g)


def test_lexicon_round_trip(tmp_path):
    lexicon = {"ab": ["a", "b"], "ba": ["b", "a"], "a": ["a"]}
    path = tmp_path / "lex.txt"
    write_lexicon(path, lexicon)
    assert read_lexicon(path) == lexicon


def test_lexicon_rejects_missing_tab(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("word a b\n")
    with pytest.raises(VocabularyError, match="TAB"):
        read_lexicon(path)


def test_arpa_error_names_the_file_and_keeps_its_line(tmp_path):
    path = tmp_path / "lm.arpa"
    path.write_text("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.5\ta\textra\tfield\n\\end\\\n")
    with pytest.raises(ArpaParseError, match=re.escape(f"{path}: line 5: 1-gram entry")) as info:
        _load_lm(path)
    assert info.value.line_no == 5


@pytest.fixture(scope="module")
def pristine_files(tmp_path_factory):
    """Per reader: (file suffix, the bytes of a valid file, the loader)."""
    root = tmp_path_factory.mktemp("pristine")
    rng = np.random.default_rng(20)
    wav = root / "u1.wav"
    write_wav(wav, rng.normal(0.0, 0.2, 200))
    paths = {kind: root / f"{kind}{suffix}" for kind, suffix in
             [("emissions", ".ckpt"), ("lexicon", ".txt"), ("manifest", ".jsonl"),
              ("arpa", ".arpa"), ("gcnn", ".ckpt"), ("config", ".cfg"), ("task", ".json")]}
    save_table(paths["emissions"], rng.normal(size=(5, 4)), rng.normal(size=(4, 4)))
    write_lexicon(paths["lexicon"], {"ab": ["a", "b"], "ba": ["b", "a"], "a": ["a"]})
    synth.save_manifest(paths["manifest"], synth.DatasetManifest(
        [synth.ManifestEntry("u1", str(wav), "ab ba"), synth.ManifestEntry("u2", str(wav), "a")]))
    paths["arpa"].write_text(fit_bigram_arpa([["ab", "ba"], ["a", "ab"], ["ba"]]))
    vocab = Vocabulary(("ab", "ba", "<s>", "</s>", "<unk>"))
    pipeline.save_gcnn(paths["gcnn"], GcnnLm(vocab, GcnnConfig(
        num_blocks=1, embed_dim=4, bottleneck_dim=2, mid_kernel_width=3)))
    paths["config"].write_text("alpha = 0.5\nmarkov = false  # a comment\nbeam_size=100\n")
    _save_task(paths["task"], synth.SyntheticTaskSpec())
    # the lexicon is read and spelled over an alphabet, as the decoding commands do
    loaders = {"wav": read_wav, "emissions": load_emissions,
               "lexicon": partial(_read_trie, alphabet=AB), "manifest": synth.load_manifest,
               "arpa": _load_lm, "gcnn": pipeline.load_gcnn, "config": parse_config_file,
               "task": _load_task}
    paths["wav"] = wav
    return {kind: (paths[kind].suffix, paths[kind].read_bytes(), load)
            for kind, load in loaders.items()}


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["wav", "emissions", "lexicon", "manifest", "arpa", "gcnn",
                             "config", "task"]),
       data=st.data())
def test_damaged_files_load_or_name_the_file(pristine_files, kind, data):
    suffix, raw, load = pristine_files[kind]
    damaged = bytearray(raw)
    if data.draw(st.booleans(), label="truncate"):
        del damaged[data.draw(st.integers(0, len(raw) - 1), label="length"):]
    else:
        for _ in range(data.draw(st.integers(1, 3), label="flips")):
            damaged[data.draw(st.integers(0, len(raw) - 1), label="at")] ^= data.draw(
                st.integers(1, 255), label="xor")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"damaged{suffix}"
        path.write_bytes(bytes(damaged))
        try:
            load(path)
        except ConvSpeechError as err:
            assert str(path) in str(err)
